"""Server-aided chunk key generation over blinded RSA.

The key manager holds a system-wide RSA pair. A client multiplies a chunk
fingerprint by ``r**e`` for a fresh random ``r``, the manager raises the
blinded value to ``d`` under per-client rate limiting, and the client strips
the blinding with ``r**-1`` and hashes the result into a 32-byte chunk key.
The manager never sees the fingerprint; the client never sees ``d``; equal
fingerprints give equal keys across clients, which is what makes the
resulting ciphertexts deduplicable.

Keys are requested per fingerprint: a chunk's own, or in similarity mode
the minimum fingerprint that represents the chunk's segment.
"""

from __future__ import annotations

import hashlib
import math
import os
import secrets
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable

from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import rsa

from . import wire
from .errors import (InvalidOperand, PrivateKeyFault, RateLimited, SignatureInvalid,
                     TransportError, ZeroFingerprint)
from .libcrypto import mod_exp
from .server import _atomic_write

DEFAULT_MODULUS_BITS = 1024
DEFAULT_RATE_CAPACITY = 10_000
DEFAULT_RATE_REFILL = 10_000.0
DEFAULT_BATCH_CAP = 256
# About 3.3 MiB when full: a 32-byte fingerprint, a 32-byte key and the
# ordered-dict entry that links them.
KEY_CACHE_ENTRIES = 16_384


@dataclass(frozen=True)
class ManagerPublicKey:
    n: int
    e: int

    @property
    def width(self) -> int:
        """Byte width of wire values and of the hashed key preimage."""
        return (self.n.bit_length() + 7) // 8


@dataclass(frozen=True)
class RSAKeyPair:
    """RSA pair with its primes; every private-exponent operation goes through here.

    ``raise_to_d`` computes ``v**d mod n`` by the Chinese remainder theorem
    over p and q (two half-size exponentiations, roughly a third of the work
    of one mod n) and checks the result with the public exponent before
    returning it. Each half runs in libcrypto's constant-time Montgomery
    exponentiation (``libcrypto.mod_exp``), so how long a private operation
    takes does not depend on the bits of d, even for values that a client
    chooses and sends (Brumley and Boneh). Nothing is cached between calls,
    so no secret lives outside these fields. Garner's recombination and the
    public-exponent check stay in Python, apart from the code they check.
    A CRT result computed under a fault (a flipped bit in dp, dq or qinv,
    or in either half) is correct modulo one prime and wrong modulo the
    other, which would hand its holder a factor of n (Boneh, DeMillo and
    Lipton); the check stops such a value from ever leaving the process.
    """

    n: int
    e: int
    d: int
    p: int
    q: int
    dp: int = field(init=False, repr=False, compare=False)
    dq: int = field(init=False, repr=False, compare=False)
    qinv: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p * self.q != self.n:
            raise ValueError("RSA primes do not multiply to the modulus")
        object.__setattr__(self, "dp", self.d % (self.p - 1))
        object.__setattr__(self, "dq", self.d % (self.q - 1))
        object.__setattr__(self, "qinv", pow(self.q, -1, self.p))

    @classmethod
    def generate(cls):
        key = rsa.generate_private_key(public_exponent=65537, key_size=DEFAULT_MODULUS_BITS)
        return cls.from_private_numbers(key.private_numbers())

    @classmethod
    def from_private_numbers(cls, priv: rsa.RSAPrivateNumbers):
        pub = priv.public_numbers
        return cls(n=pub.n, e=pub.e, d=priv.d, p=priv.p, q=priv.q)

    def raise_to_d(self, v: int) -> int:
        """``v**d mod n``; raises PrivateKeyFault and returns nothing on a bad result."""
        m1 = mod_exp(v, self.dp, self.p)
        m2 = mod_exp(v, self.dq, self.q)
        s = m2 + (self.qinv * (m1 - m2) % self.p) * self.q
        if pow(s, self.e, self.n) != v % self.n:
            raise PrivateKeyFault("private-key result failed the public-exponent check")
        return s


@dataclass(frozen=True)
class ManagerKeyPair(RSAKeyPair):
    """The key manager's system-wide pair; persisted as a PKCS#8 PEM."""

    @property
    def public(self) -> ManagerPublicKey:
        return ManagerPublicKey(n=self.n, e=self.e)

    def save_pem(self, path: str) -> None:
        priv = rsa.RSAPrivateNumbers(
            p=self.p, q=self.q, d=self.d, dmp1=self.dp, dmq1=self.dq, iqmp=self.qinv,
            public_numbers=rsa.RSAPublicNumbers(self.e, self.n),
        ).private_key()
        pem = priv.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )
        _atomic_write(path, pem, mode=0o600)

    @classmethod
    def load_pem(cls, path: str) -> "ManagerKeyPair":
        with open(path, "rb") as fh:
            key = serialization.load_pem_private_key(fh.read(), password=None)
        return cls.from_private_numbers(key.private_numbers())

    @classmethod
    def load_or_create(cls, path: str) -> "ManagerKeyPair":
        if os.path.exists(path):
            return cls.load_pem(path)
        pair = cls.generate()
        pair.save_pem(path)
        return pair


@dataclass
class BlindedRequest:
    """Client-held blinding context; ``r`` itself never leaves the client."""

    fp_int: int
    value: int
    r_inv: int
    pub: ManagerPublicKey


def blind(fp: bytes, pub: ManagerPublicKey, r: int | None = None) -> BlindedRequest:
    """Blind a fingerprint for the manager: value = fp * r**e mod n.

    ``r`` is drawn fresh and uniformly from the units mod n; passing it
    explicitly is a test hook (r=1 sends the bare fingerprint).
    """
    fp_int = int.from_bytes(fp, "big")
    if fp_int == 0:
        raise ZeroFingerprint("fingerprint encodes to 0; input is corrupt")
    if fp_int >= pub.n:
        raise InvalidOperand("fingerprint does not fit below the modulus")
    if r is None:
        while True:
            r = secrets.randbelow(pub.n - 1) + 1
            if math.gcd(r, pub.n) == 1:
                break
    r_inv = pow(r, -1, pub.n)
    value = fp_int * pow(r, pub.e, pub.n) % pub.n
    return BlindedRequest(fp_int=fp_int, value=value, r_inv=r_inv, pub=pub)


def derive_chunk_key(s: int, width: int) -> bytes:
    """Hash the unblinded signature into a 32-byte chunk key.

    The preimage is the fixed-width big-endian encoding of ``s`` (the
    modulus width), so leading zeros cannot create ambiguity.
    """
    return hashlib.sha256(s.to_bytes(width, "big")).digest()


def unblind(signed: int, req: BlindedRequest) -> bytes:
    """Strip the blinding and verify s**e == fp before hashing into a key."""
    if not 1 <= signed <= req.pub.n - 1:
        raise InvalidOperand("signed value outside the modulus range")
    s = signed * req.r_inv % req.pub.n
    if pow(s, req.pub.e, req.pub.n) != req.fp_int:
        raise SignatureInvalid("manager response failed verification")
    return derive_chunk_key(s, req.pub.width)


class TokenBucket:
    """Per-client token bucket; thread-safe, injectable clock for tests."""

    def __init__(self, capacity: int = DEFAULT_RATE_CAPACITY,
                 refill_rate: float = DEFAULT_RATE_REFILL,
                 clock: Callable[[], float] = time.monotonic):
        self.capacity = capacity
        self.refill_rate = refill_rate
        self._clock = clock
        self._lock = threading.Lock()
        self._state: dict[str, tuple[float, float]] = {}  # client -> (tokens, ts)

    def try_acquire(self, client_id: str, n: int = 1) -> bool:
        now = self._clock()
        with self._lock:
            tokens, ts = self._state.get(client_id, (float(self.capacity), now))
            tokens = min(float(self.capacity), tokens + (now - ts) * self.refill_rate)
            if tokens < n:
                self._state[client_id] = (tokens, now)
                return False
            self._state[client_id] = (tokens - n, now)
            return True

    def tokens(self, client_id: str) -> float:
        now = self._clock()
        with self._lock:
            tokens, ts = self._state.get(client_id, (float(self.capacity), now))
            return min(float(self.capacity), tokens + (now - ts) * self.refill_rate)


class KeyManagerService:
    """Signing side of the protocol plus its wire frame handler."""

    def __init__(self, keypair: ManagerKeyPair,
                 rate_capacity: int = DEFAULT_RATE_CAPACITY,
                 rate_refill: float = DEFAULT_RATE_REFILL,
                 batch_cap: int = DEFAULT_BATCH_CAP,
                 clock: Callable[[], float] = time.monotonic):
        for name, value in (("batch_cap", batch_cap), ("rate_capacity", rate_capacity)):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, not {value}")
        # a nan or infinite refill keeps every bucket full, so nothing is ever
        # limited, and a negative one drains each bucket for good
        if not (math.isfinite(rate_refill) and rate_refill >= 0):
            raise ValueError(f"rate_refill must be a finite number of at least 0, "
                             f"not {rate_refill}")
        self.keypair = keypair
        self.limiter = TokenBucket(rate_capacity, rate_refill, clock)
        self.batch_cap = batch_cap
        self._signed_count = 0
        self._count_lock = threading.Lock()

    @property
    def public_key(self) -> ManagerPublicKey:
        return self.keypair.public

    @property
    def signed_count(self) -> int:
        return self._signed_count

    def sign_batch(self, values: list[int], client_id: str) -> list[int]:
        """Element-wise signature; consumes one limiter token per value."""
        if len(values) > self.batch_cap:
            raise InvalidOperand(f"batch of {len(values)} exceeds cap {self.batch_cap}")
        for v in values:
            if not 1 <= v <= self.keypair.n - 1:
                raise InvalidOperand("blinded value outside the modulus range")
        if values and not self.limiter.try_acquire(client_id, len(values)):
            raise RateLimited(f"client {client_id} exceeded the key generation rate")
        out = [self.keypair.raise_to_d(v) for v in values]
        with self._count_lock:
            self._signed_count += len(values)
        return out

    def handle_frame(self, msg_type: int, payload: bytes, client_id: str) -> bytes:
        width = self.public_key.width
        if msg_type == wire.MSG_KEYGEN:
            signed = self.sign_batch(wire.decode_int_list(payload, width), client_id)
            return wire.encode_int_list(signed, width)
        if msg_type == wire.MSG_MANAGER_PUBKEY:
            # n, e, and the cap by which clients split their batches: no
            # larger than the bucket, which refuses a larger batch forever
            pub = self.public_key
            cap = min(self.batch_cap, self.limiter.capacity)
            return (wire.prefixed(pub.n.to_bytes(width, "big"))
                    + wire.prefixed(pub.e.to_bytes(4, "big")) + wire.u32(cap))
        raise InvalidOperand(f"unknown message type {msg_type:#x}")


class KeySession:
    """Client-side session: blinds, submits batches, unblinds, and caches.

    Works over any backend exposing request(); the in-process LocalBackend
    and the TCP connection run the exact same codecs. Batches are split by
    the cap the manager announces with its public key.

    Keys are cached per fingerprint in a least-recently-used map of at most
    KEY_CACHE_ENTRIES entries, so the manager, and its rate limit, see only
    fingerprints this session has not resolved. The cache is never persisted
    or sent, and it holds only keys that passed unblind's check under this
    session's one manager public key.
    """

    def __init__(self, backend):
        self._backend = backend
        self._pub: ManagerPublicKey | None = None
        self._batch_cap = 0
        self._cache: OrderedDict[bytes, bytes] = OrderedDict()
        self.request_count = 0  # keys resolved, from the cache or the manager
        self.sent_count = 0  # fingerprints the manager signed

    @property
    def public_key(self) -> ManagerPublicKey:
        if self._pub is None:
            r = wire.Reader(wire.call(self._backend, wire.MSG_MANAGER_PUBKEY, b""))
            n = int.from_bytes(r.bytes_u32(), "big")
            e = int.from_bytes(r.bytes_u32(), "big")
            batch_cap = r.u32()
            r.done()
            if batch_cap < 1:
                raise TransportError("manager announced a batch cap of 0")
            self._pub, self._batch_cap = ManagerPublicKey(n=n, e=e), batch_cap
        return self._pub

    def _sign_values(self, values: list[int]) -> list[int]:
        width = self.public_key.width
        body = wire.call(self._backend, wire.MSG_KEYGEN, wire.encode_int_list(values, width))
        signed = wire.decode_int_list(body, width)
        if len(signed) != len(values):
            raise SignatureInvalid("manager returned a short batch")
        return signed

    def keys_for_fingerprints(self, fps: Iterable[bytes]) -> list[bytes]:
        """One chunk key per fingerprint, in order.

        Cached fingerprints are answered locally; the others are sent once
        each, in first-seen order, batched on the wire.
        """
        fps = list(fps)
        pub = self.public_key
        cache = self._cache
        keys: dict[bytes, bytes] = {}
        missed: list[bytes] = []
        for fp in dict.fromkeys(fps):
            key = cache.get(fp)
            if key is None:
                missed.append(fp)
            else:
                cache.move_to_end(fp)
                keys[fp] = key
        requests = [blind(fp, pub) for fp in missed]
        for i in range(0, len(requests), self._batch_cap):
            batch = requests[i:i + self._batch_cap]
            signed = self._sign_values([req.value for req in batch])
            self.sent_count += len(batch)
            # every key of the batch passes unblind's check before any is cached
            fresh = [unblind(s, req) for s, req in zip(signed, batch)]
            for fp, key in zip(missed[i:i + self._batch_cap], fresh):
                keys[fp] = cache[fp] = key
                if len(cache) > KEY_CACHE_ENTRIES:
                    cache.popitem(last=False)
        self.request_count += len(fps)
        return [keys[fp] for fp in fps]
