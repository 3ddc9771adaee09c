"""Convergent all-or-nothing packaging of chunks.

A chunk is transformed into a package whose final ``STUB_SIZE`` bytes (the
stub) are later encrypted under a renewable per-file key, while the leading
part (the trimmed package) is deterministic in (chunk, key) and therefore
deduplicable. Two schemes are provided:

* basic: mask the chunk plus a zero canary with a keystream derived from
  the chunk key, then append ``tail = key XOR H(head)``. Cheap, but all
  chunks masked under one shared key leak their pairwise XOR.
* enhanced: symmetrically encrypt the chunk first, append the key, and mask
  that with a keystream derived from ``h = H(ciphertext || key)``; the tail
  is the XOR-fold of the head pieces XOR h. Masks differ per chunk even
  under a shared key.

Both schemes give |trimmed| == |chunk| and |stub| == 64, and both detect
every modification of the trimmed package or the stub on reconstruction.

Keystreams are AES-256-CTR from the libcrypto CPython's hashlib links,
called through ctypes (``reed.libcrypto``) on one re-keyed cipher context
per thread; stub files use AES-GCM from the ``cryptography`` package.
"""

from __future__ import annotations

import ctypes
import hashlib
import hmac
import os
import threading

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import AuthenticationFailure, IntegrityViolation, PackageTooSmall
from .libcrypto import lib as _crypto

KEY_SIZE = 32
TAIL_SIZE = 32
PIECE_SIZE = 32
STUB_SIZE = 64
CANARY = bytes(32)

GCM_NONCE_SIZE = 12
GCM_TAG_SIZE = 16
STUB_FILE_OVERHEAD = GCM_NONCE_SIZE + GCM_TAG_SIZE

SCHEME_BASIC = 0
SCHEME_ENHANCED = 1
SCHEME_NAMES = {SCHEME_BASIC: "basic", SCHEME_ENHANCED: "enhanced"}
SCHEME_IDS = {v: k for k, v in SCHEME_NAMES.items()}

_init = _crypto.EVP_EncryptInit_ex
_update = _crypto.EVP_EncryptUpdate
# EVP_EncryptUpdate takes an int length, so one keystream call is capped
# here; a large fixed chunk size could otherwise reach that limit.
_MAX_UPDATE = 1 << 30


class _Context:
    """One thread's EVP_CIPHER_CTX for AES-256-CTR, freed with the thread.

    OpenSSL's own validation and set-up run once here; a keystream call only
    re-keys the context, which is far cheaper than a new cipher object.
    """

    __slots__ = ("ctx", "outl", "__weakref__")

    def __init__(self):
        self.ctx = None
        ctx = _crypto.EVP_CIPHER_CTX_new()
        if not ctx:
            raise MemoryError("EVP_CIPHER_CTX_new failed")
        self.ctx = ctypes.c_void_p(ctx)
        if _init(self.ctx, _crypto.EVP_aes_256_ctr(), None, None, None) != 1:
            raise RuntimeError("EVP_EncryptInit_ex could not set up AES-256-CTR")
        self.outl = ctypes.pointer(ctypes.c_int())

    def __del__(self, _free=_crypto.EVP_CIPHER_CTX_free):
        if self.ctx is not None:
            _free(self.ctx)


_contexts = threading.local()


def _thread_context() -> _Context:
    context = getattr(_contexts, "context", None)
    if context is None:
        context = _contexts.context = _Context()
    return context


def _keystream_xor(key: bytes, data) -> bytes:
    """data XOR keystream(key): AES-256 in counter mode from the zero
    counter block, encrypting data directly. data may be any byte buffer of
    at most _MAX_UPDATE bytes."""
    if len(key) != KEY_SIZE:
        raise ValueError("keystream key must be 32 bytes")
    if type(key) is not bytes:
        key = bytes(key)
    if type(data) is not bytes:
        data = bytes(data)
    n = len(data)
    if n > _MAX_UPDATE:
        raise ValueError(f"a keystream call takes at most {_MAX_UPDATE} bytes")
    if not n:
        return b""  # from_buffer cannot address an empty buffer
    out = bytearray(n)
    context = _thread_context()
    ctx, outl = context.ctx, context.outl
    if _init(ctx, None, None, key, bytes(16)) != 1:
        raise RuntimeError("EVP_EncryptInit_ex could not re-key the context")
    dest = ctypes.addressof(ctypes.c_char.from_buffer(out))
    if _update(ctx, dest, outl, data, n) != 1 or outl.contents.value != n:
        raise RuntimeError("EVP_EncryptUpdate failed")
    return bytes(out)


# One chunk-key slot per thread. Under similarity keying a run of chunks
# shares one segment key, so its keystream is computed once per run instead
# of once per chunk. A key's first use is a plain CTR pass, as under chunk
# keying where keys rarely repeat; the slot keeps that pass's input and
# output, whose XOR is the keystream, and derives it when the key recurs.
# Every keystream is a prefix of a longer one under the same key, so a slot
# serves any length up to its own.
_memo = threading.local()


def _chunk_key_xor(key: bytes, data: bytes) -> bytes:
    """data XOR keystream(key), reusing the thread's last chunk-key keystream."""
    slot = getattr(_memo, "slot", None)
    if slot is None or slot[0] != key or len(slot[1]) < len(data):
        if type(data) is not bytes:
            data = bytes(data)  # one copy, which the slot keeps
        out = _keystream_xor(key, data)
        _memo.slot = (key, data, out)
        return out
    if len(slot) == 3:
        stream = np.bitwise_xor(np.frombuffer(slot[1], dtype=np.uint8),
                                np.frombuffer(slot[2], dtype=np.uint8))
        slot = _memo.slot = (key, stream)
    view = np.frombuffer(data, dtype=np.uint8)
    return np.bitwise_xor(view, slot[1][:len(data)]).tobytes()


def _xor32(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(32, "big")


def self_xor(data) -> bytes:
    """XOR-fold consecutive 32-byte pieces; a ragged tail is zero-extended."""
    if not data:
        raise ValueError("self_xor requires non-empty input")
    pad = -len(data) % PIECE_SIZE
    if pad:
        data = b"".join((data, bytes(pad)))
    # Each piece is four uint64 lanes. Folding a lane is a reduction along a
    # contiguous row of the transpose, which numpy runs far faster than the
    # strided reduction down axis 0 of the pieces.
    lanes = np.frombuffer(data, dtype=np.uint64).reshape(-1, PIECE_SIZE // 8).T.copy()
    return np.bitwise_xor.reduce(lanes, axis=1).tobytes()


def basic_encrypt(chunk: bytes, key: bytes) -> tuple[bytes, bytes]:
    """Basic scheme: returns (trimmed, stub) with |trimmed| == |chunk|."""
    if not chunk:
        raise ValueError("cannot encrypt an empty chunk")
    if len(key) != KEY_SIZE:
        raise ValueError("chunk key must be 32 bytes")
    head = _chunk_key_xor(key, chunk + CANARY)
    tail = _xor32(key, hashlib.sha256(head).digest())
    return head[:-TAIL_SIZE], head[-TAIL_SIZE:] + tail


def _head_and_tail(trimmed, stub) -> tuple[bytes, bytes]:
    """The package head (trimmed package plus the stub's first half) and the
    tail; trimmed and stub may be any buffers, such as views of a frame."""
    if not trimmed:
        raise PackageTooSmall("a package must be at least 65 bytes")
    if len(stub) != STUB_SIZE:
        raise IntegrityViolation(f"a stub must be {STUB_SIZE} bytes, got {len(stub)}")
    stub = memoryview(stub)
    return b"".join((trimmed, stub[:-TAIL_SIZE])), bytes(stub[-TAIL_SIZE:])


def basic_decrypt(trimmed, stub) -> bytes:
    """Invert basic_encrypt; raises IntegrityViolation on a broken canary."""
    head, tail = _head_and_tail(trimmed, stub)
    key = _xor32(hashlib.sha256(head).digest(), tail)
    plain = _chunk_key_xor(key, head)
    if not hmac.compare_digest(plain[-len(CANARY):], CANARY):
        raise IntegrityViolation("canary mismatch: trimmed package or stub was modified")
    return plain[:-len(CANARY)]


def mle_encrypt(chunk: bytes, key: bytes) -> bytes:
    """Deterministic symmetric encryption so identical inputs deduplicate."""
    if not chunk:
        raise ValueError("cannot encrypt an empty chunk")
    if len(key) != KEY_SIZE:
        raise ValueError("chunk key must be 32 bytes")
    return _chunk_key_xor(key, chunk)


def mle_decrypt(ciphertext: bytes, key: bytes) -> bytes:
    return _chunk_key_xor(key, ciphertext)


def enhanced_encrypt(chunk: bytes, key: bytes) -> tuple[bytes, bytes]:
    """Enhanced scheme: returns (trimmed, stub) with |trimmed| == |chunk|.

    The mask key is ``h = H(C1 || key)`` rather than the chunk key itself,
    so learning the chunk key alone does not unmask the package.
    """
    c1 = mle_encrypt(chunk, key)
    inner = c1 + key
    h = hashlib.sha256(inner).digest()
    head = _keystream_xor(h, inner)
    tail = _xor32(self_xor(head), h)
    return head[:-TAIL_SIZE], head[-TAIL_SIZE:] + tail


def enhanced_decrypt(trimmed, stub) -> bytes:
    """Invert enhanced_encrypt; raises IntegrityViolation if H(C1||key) != h."""
    head, tail = _head_and_tail(trimmed, stub)
    h = _xor32(self_xor(head), tail)
    inner = _keystream_xor(h, head)
    if not hmac.compare_digest(hashlib.sha256(inner).digest(), h):
        raise IntegrityViolation("hash key mismatch: trimmed package or stub was modified")
    c1 = memoryview(inner)[:-KEY_SIZE]
    return mle_decrypt(c1, inner[-KEY_SIZE:])


def encrypt_chunk(scheme: int, chunk: bytes, key: bytes) -> tuple[bytes, bytes]:
    if scheme == SCHEME_BASIC:
        return basic_encrypt(chunk, key)
    if scheme == SCHEME_ENHANCED:
        return enhanced_encrypt(chunk, key)
    raise ValueError(f"unknown scheme id {scheme}")


def decrypt_chunk(scheme: int, trimmed, stub) -> bytes:
    """Invert encrypt_chunk; trimmed and stub may be any buffers."""
    if scheme == SCHEME_BASIC:
        return basic_decrypt(trimmed, stub)
    if scheme == SCHEME_ENHANCED:
        return enhanced_decrypt(trimmed, stub)
    raise ValueError(f"unknown scheme id {scheme}")


def encrypt_stub_file(plain, file_key: bytes) -> bytes:
    """Authenticated encryption of one file's stubs, concatenated in recipe
    order, so stub i is plain[64*i:64*(i+1)] and belongs to chunk i.

    plain may be any byte buffer; one that is not a whole number of stubs
    raises ValueError. Layout: 12-byte random nonce || ciphertext || 16-byte
    tag.
    """
    if len(file_key) != KEY_SIZE:
        raise ValueError("file key must be 32 bytes")
    if len(plain) % STUB_SIZE:
        raise ValueError(f"stub file plaintext of {len(plain)} bytes is not "
                         f"a whole number of {STUB_SIZE}-byte stubs")
    nonce = os.urandom(GCM_NONCE_SIZE)
    return nonce + AESGCM(file_key).encrypt(nonce, plain, None)


def decrypt_stub_file(blob, file_key: bytes) -> bytes:
    """Invert encrypt_stub_file: the concatenated stubs as one bytes object.
    Raises AuthenticationFailure on a wrong key, a tampered or truncated
    blob, or a plaintext that is not stub-aligned."""
    if len(file_key) != KEY_SIZE:
        raise ValueError("file key must be 32 bytes")
    if len(blob) < STUB_FILE_OVERHEAD:
        raise AuthenticationFailure("stub file blob is truncated")
    view = memoryview(blob)
    try:
        plain = AESGCM(file_key).decrypt(view[:GCM_NONCE_SIZE], view[GCM_NONCE_SIZE:], None)
    except InvalidTag as exc:
        raise AuthenticationFailure("stub file failed authentication") from exc
    if len(plain) % STUB_SIZE:
        raise AuthenticationFailure("stub file plaintext is not stub-aligned")
    return plain
