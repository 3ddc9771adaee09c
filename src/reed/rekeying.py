"""Per-file key regression, file keys, and policy-wrapped key states.

Every file carries a versioned key state. Winding a state forward requires
the owner's private derivation key; unwinding back requires only the public
half, which is embedded in the state. The file key for a version is the hash
of that version's state, so a reader holding the current state can derive
the file key of any earlier stub file by unwinding, while no amount of
unwinding produces a future state.

Access control wraps the state once per authorized user: a fresh content
key encrypts the serialized state, and that content key is sealed for each
policy member under a key agreed by X25519 between one ephemeral key per
wrap and the member's public access key (a DHKEM as in RFC 9180). Any
listed user can unwrap with one exchange; absent users have no entry at
all. Revocation is a new wrap that omits them.
"""

from __future__ import annotations

import hashlib
import math
import os
import secrets
import struct
from dataclasses import dataclass
from typing import Iterable, Mapping

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric.x25519 import (X25519PrivateKey,
                                                              X25519PublicKey)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from . import caont
from .errors import (AccessDenied, AtInitialState, NotFound, NotOwner,
                     PolicyEmpty, UnknownUser)
from .keygen import RSAKeyPair
from .wire import Reader

LAZY = "lazy"
ACTIVE = "active"


@dataclass(frozen=True)
class DerivationKeyPair(RSAKeyPair):
    """Owner RSA pair: d winds states forward, (n, e) unwinds them back."""


@dataclass(frozen=True)
class KeyState:
    """One version of a file's key material.

    The owner's public derivation key rides along so any holder of the
    state can unwind it without a directory lookup.
    """

    owner_id: str
    version: int
    value: int
    owner_n: int
    owner_e: int

    @property
    def width(self) -> int:
        return (self.owner_n.bit_length() + 7) // 8


def new_state(owner_id: str, keys: DerivationKeyPair) -> KeyState:
    """Version-0 state with a uniform random value in the units mod n."""
    while True:
        value = secrets.randbelow(keys.n - 2) + 2
        if math.gcd(value, keys.n) == 1:
            break
    return KeyState(owner_id=owner_id, version=0, value=value,
                    owner_n=keys.n, owner_e=keys.e)


def wind(state: KeyState, keys: DerivationKeyPair | None) -> KeyState:
    """Advance one version; only the owner's private key can do this."""
    if keys is None or keys.n != state.owner_n:
        raise NotOwner("winding requires the owner's private derivation key")
    return KeyState(owner_id=state.owner_id, version=state.version + 1,
                    value=keys.raise_to_d(state.value),
                    owner_n=state.owner_n, owner_e=state.owner_e)


def unwind(state: KeyState) -> KeyState:
    """Step back one version using only the embedded public key."""
    if state.version == 0:
        raise AtInitialState("key state is already at version 0")
    return KeyState(owner_id=state.owner_id, version=state.version - 1,
                    value=pow(state.value, state.owner_e, state.owner_n),
                    owner_n=state.owner_n, owner_e=state.owner_e)


def unwind_to(state: KeyState, version: int) -> KeyState:
    if version > state.version:
        raise AtInitialState(
            f"cannot unwind from version {state.version} up to {version}")
    while state.version > version:
        state = unwind(state)
    return state


def derive_file_key(state: KeyState) -> bytes:
    """32-byte file key: hash of the fixed-width state value and version."""
    encoded = state.value.to_bytes(state.width, "big") + struct.pack(">I", state.version)
    return hashlib.sha256(encoded).digest()


# -- state serialization (plaintext inside the wrap) -----------------------------


def _encode_state(state: KeyState) -> bytes:
    owner = state.owner_id.encode("utf-8")
    value = state.value.to_bytes(state.width, "big")
    n = state.owner_n.to_bytes(state.width, "big")
    e = state.owner_e.to_bytes(4, "big")
    return b"".join([
        struct.pack(">I", state.version),
        struct.pack(">I", len(owner)), owner,
        struct.pack(">I", len(value)), value,
        struct.pack(">I", len(n)), n, e,
    ])


def _decode_state(blob: bytes) -> KeyState:
    r = Reader(blob)
    version = r.u32()
    owner = r.text()
    value = int.from_bytes(r.bytes_u32(), "big")
    n = int.from_bytes(r.bytes_u32(), "big")
    e = int.from_bytes(r.take(4), "big")
    r.done()
    return KeyState(owner_id=owner, version=version, value=value,
                    owner_n=n, owner_e=e)


# -- access keys and policy wraps -------------------------------------------------


def generate_access_keypair() -> X25519PrivateKey:
    return X25519PrivateKey.generate()


def access_public_pem(private_key: X25519PrivateKey) -> bytes:
    return private_key.public_key().public_bytes(
        serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo)


def load_access_public(pem: bytes) -> X25519PublicKey:
    key = serialization.load_pem_public_key(pem)
    if not isinstance(key, X25519PublicKey):
        raise ValueError("expected an X25519 public key")
    return key


def resolve_policy(store, policy: Iterable[str]) -> dict[str, X25519PublicKey]:
    """Each member's registered public access key, keyed by member in sorted
    order; PolicyEmpty if the policy names nobody, UnknownUser if a member
    is empty or has no registered key or one that is not an X25519 public key."""
    members = sorted(set(policy))
    if not members:
        raise PolicyEmpty("policy must authorize at least one user")
    if "" in members:
        raise UnknownUser("the policy names an empty user id")
    directory = {}
    for uid in members:
        try:
            directory[uid] = load_access_public(store.get_user_key(uid))
        except NotFound:
            raise UnknownUser(f"no registered public access key for {uid!r}") from None
        except ValueError:
            raise UnknownUser(
                f"the registered access key of {uid!r} is not an X25519 public key: "
                f"it predates X25519 access keys, and this build does not wrap to it"
            ) from None
    return directory


_WRAP_INFO = b"reed wrap v1"
EPK_SIZE = 32
_ENTRY_NONCE = bytes(caont.GCM_NONCE_SIZE)  # each KEK seals exactly one entry


def _kek(shared: bytes, epk: bytes, member_pk: bytes) -> bytes:
    """The key that seals one member's entry, bound to both public keys."""
    return HKDF(algorithm=hashes.SHA256(), length=32, salt=None,
                info=_WRAP_INFO + epk + member_pk).derive(shared)


def wrap_state(state: KeyState, directory: Mapping[str, X25519PublicKey]) -> bytes:
    """Wrap a state under an any-of policy: every member of directory, in
    its order (resolve_policy's is sorted), with their public access key.

    Layout: version(4) || user count(4) || epk(32) || per user (id, entry,
    each length-prefixed) || nonce || state ciphertext || tag. epk is the
    public half of one fresh X25519 key per wrap. A member's entry is the
    content key sealed by AES-256-GCM (48 bytes) under HKDF-SHA256 of the
    exchange of that key with the member's, with the zero nonce and the
    member's id as associated data. The header is bound to the ciphertext
    as associated data, so any tampering fails the unwrap. An empty
    directory is refused, since nobody could unwrap, and so is a member
    key the exchange refuses (a low-order point), naming the member.
    """
    if not directory:
        raise PolicyEmpty("policy must authorize at least one user")
    content_key = secrets.token_bytes(32)
    eph = X25519PrivateKey.generate()
    epk = eph.public_key().public_bytes_raw()
    header = [struct.pack(">II", state.version, len(directory)), epk]
    for user, pub in directory.items():
        uid = user.encode("utf-8")
        try:
            shared = eph.exchange(pub)
        except ValueError:
            raise UnknownUser(f"the access key of {user!r} cannot be wrapped to: "
                              f"the X25519 exchange with it fails") from None
        kek = _kek(shared, epk, pub.public_bytes_raw())
        entry = AESGCM(kek).encrypt(_ENTRY_NONCE, content_key, uid)
        header.append(struct.pack(">I", len(uid)) + uid)
        header.append(struct.pack(">I", len(entry)) + entry)
    header_bytes = b"".join(header)
    nonce = os.urandom(caont.GCM_NONCE_SIZE)
    ct = AESGCM(content_key).encrypt(nonce, _encode_state(state), header_bytes)
    return header_bytes + nonce + ct


def _parse_wrap(blob: bytes):
    r = Reader(blob)
    version = r.u32()
    count = r.u32()
    epk = r.take(EPK_SIZE)
    entries = []
    for _ in range(count):
        uid = r.text()
        entry = r.bytes_u32()
        entries.append((uid, entry))
    return version, epk, entries, r


def wrapped_policy(blob: bytes) -> list[str]:
    """Plaintext policy membership recorded in a wrap (audit surface)."""
    _, _, entries, _ = _parse_wrap(blob)
    return [uid for uid, _ in entries]


def wrapped_version(blob: bytes) -> int:
    return _parse_wrap(blob)[0]


def unwrap_state(blob: bytes, private_key: X25519PrivateKey, user_id: str) -> KeyState:
    """Recover the state with one exchange; AccessDenied if the user has no
    entry, on a wrong key, on tamper, or on a wrap of any other layout."""
    try:
        version, epk, entries, r = _parse_wrap(blob)
        header_bytes = blob[:r.pos]
        nonce = r.take(caont.GCM_NONCE_SIZE)
        ct = r.rest()
    except Exception as exc:
        raise AccessDenied("malformed wrapped key state") from exc
    entry = None
    for uid, sealed in entries:
        if uid == user_id:
            entry = sealed
            break
    if entry is None:
        raise AccessDenied(f"{user_id!r} is not in this file's policy")
    try:
        shared = private_key.exchange(X25519PublicKey.from_public_bytes(epk))
        kek = _kek(shared, epk, private_key.public_key().public_bytes_raw())
        content_key = AESGCM(kek).decrypt(_ENTRY_NONCE, entry, user_id.encode("utf-8"))
        plain = AESGCM(content_key).decrypt(nonce, ct, header_bytes)
    except (ValueError, InvalidTag) as exc:
        raise AccessDenied("unwrap failed: wrong key or tampered wrap") from exc
    state = _decode_state(plain)
    if state.version != version:
        raise AccessDenied("wrap header version does not match the state")
    return state
