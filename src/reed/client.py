"""Client-side orchestration: upload, download, and rekey pipelines.

An upload chunks the file, obtains one key per similarity segment (or per
chunk), transforms every chunk into a trimmed package plus stub, and sends
the server (i) the trimmed packages, (ii) the file recipe, (iii) the stub
file encrypted under the file key, and (iv) the key state wrapped under the
file's policy. Chunk keys and file keys never appear in any message.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import threading
from dataclasses import dataclass, field

from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import rsa

from . import caont, wire
from .chunking import (Chunk, ChunkingParams, SegmentationParams, chunk_stream,
                       fingerprint, segment)
from .errors import (IntegrityViolation, PolicyEmpty, SchemeNotAllowed,
                     TransportError, UnknownUser, NotFound)
from .keygen import KeySession
from .rekeying import (DerivationKeyPair, access_public_pem, derive_file_key,
                       generate_access_keypair, load_access_public, new_state,
                       unwind_to, unwrap_state, wrap_state)
from . import rekeying
from .server import ServerStats

KEYING_CHUNK = "chunk"
KEYING_SIMILARITY = "similarity"
TRANSFER_BATCH = 4 * 1024 * 1024
RECIPE_FORMAT = 1


class Connection:
    """Synchronous framed TCP connection; one request in flight at a time."""

    def __init__(self, host: str, port: int):
        try:
            self._sock = socket.create_connection((host, port), timeout=30)
        except OSError as exc:
            raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
        self._lock = threading.Lock()

    def request(self, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        with self._lock:
            try:
                wire.write_frame(self._sock, msg_type, payload)
                return wire.read_frame(self._sock)
            except (ConnectionError, OSError) as exc:
                raise TransportError(str(exc)) from exc

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class StoreSession:
    """Typed view of the storage wire protocol over any request backend."""

    def __init__(self, backend):
        self._backend = backend

    def _call(self, msg_type: int, payload: bytes) -> bytes:
        resp_type, body = self._backend.request(msg_type, payload)
        wire.raise_for_frame(resp_type, body)
        if resp_type != (msg_type | wire.RESP_FLAG):
            raise TransportError(f"unexpected response type {resp_type:#x}")
        return body

    def put_packages(self, items: list[tuple[bytes, bytes]]) -> int:
        body = self._call(wire.MSG_PUT_PACKAGES, wire.encode_package_items(items))
        return wire.Reader(body).u32()

    def get_packages(self, fps: list[bytes]) -> list[bytes]:
        body = self._call(wire.MSG_GET_PACKAGES, wire.encode_fingerprint_list(fps))
        return wire.decode_byte_list(body)

    def _put_blob(self, msg_type: int, obj_id: str, version: int, blob: bytes,
                  expected_prev: int | None = None) -> None:
        self._call(msg_type, wire.encode_blob_put(obj_id, version, blob, expected_prev))

    def _get_blob(self, msg_type: int, obj_id: str,
                  version: int | None = None) -> tuple[int, bytes]:
        body = self._call(msg_type, wire.encode_blob_get(obj_id, version))
        return wire.decode_blob_response(body)

    def put_recipe(self, file_id: str, blob: bytes) -> None:
        self._put_blob(wire.MSG_RECIPE, file_id, 0, blob)

    def get_recipe(self, file_id: str) -> bytes:
        return self._get_blob(wire.MSG_RECIPE, file_id)[1]

    def put_stub(self, file_id: str, version: int, blob: bytes) -> None:
        self._put_blob(wire.MSG_STUB_FILE, file_id, version, blob)

    def get_stub(self, file_id: str, version: int | None = None) -> tuple[int, bytes]:
        return self._get_blob(wire.MSG_STUB_FILE, file_id, version)

    def put_state(self, file_id: str, version: int, blob: bytes,
                  expected_prev: int | None = None) -> None:
        self._put_blob(wire.MSG_WRAPPED_STATE, file_id, version, blob, expected_prev)

    def get_state(self, file_id: str, version: int | None = None) -> tuple[int, bytes]:
        return self._get_blob(wire.MSG_WRAPPED_STATE, file_id, version)

    def put_user_key(self, user_id: str, blob: bytes) -> None:
        self._put_blob(wire.MSG_USER_KEY, user_id, 0, blob)

    def get_user_key(self, user_id: str) -> bytes:
        return self._get_blob(wire.MSG_USER_KEY, user_id)[1]

    def stats(self) -> ServerStats:
        body = self._call(wire.MSG_STATS, b"")
        return ServerStats(*wire.decode_stats(body))


@dataclass
class ClientIdentity:
    """A user's long-lived keys; private halves never leave the machine."""

    user_id: str
    access_key: rsa.RSAPrivateKey
    derivation: DerivationKeyPair

    @classmethod
    def create(cls, user_id: str) -> "ClientIdentity":
        return cls(user_id=user_id,
                   access_key=generate_access_keypair(),
                   derivation=DerivationKeyPair.generate())

    def save(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        pem = self.access_key.private_bytes(
            serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption())
        with open(os.path.join(directory, "access_key.pem"), "wb") as fh:
            fh.write(pem)
        deriv = self.derivation
        meta = {"user_id": self.user_id,
                "derivation": {"n": hex(deriv.n), "e": deriv.e, "d": hex(deriv.d),
                               "p": hex(deriv.p), "q": hex(deriv.q)}}
        with open(os.path.join(directory, "identity.json"), "w") as fh:
            json.dump(meta, fh)

    @classmethod
    def load(cls, directory: str) -> "ClientIdentity":
        with open(os.path.join(directory, "identity.json")) as fh:
            meta = json.load(fh)
        with open(os.path.join(directory, "access_key.pem"), "rb") as fh:
            key = serialization.load_pem_private_key(fh.read(), password=None)
        fields = meta["derivation"]
        n, e, d = int(fields["n"], 16), fields["e"], int(fields["d"], 16)
        if "p" in fields:
            p, q = int(fields["p"], 16), int(fields["q"], 16)
        else:  # written before identities kept the primes
            p, q = rsa.rsa_recover_prime_factors(n, e, d)
        deriv = DerivationKeyPair(n=n, e=e, d=d, p=p, q=q)
        return cls(user_id=meta["user_id"], access_key=key, derivation=deriv)

    def public_record(self) -> bytes:
        return access_public_pem(self.access_key)


def register_identity(store: StoreSession, identity: ClientIdentity) -> None:
    store.put_user_key(identity.user_id, identity.public_record())


def file_id_for(owner_id: str, path: str) -> str:
    normalized = os.path.normpath(os.path.abspath(path))
    digest = hashlib.sha256(owner_id.encode("utf-8") + b"\x00"
                            + normalized.encode("utf-8")).hexdigest()
    return digest


# -- file recipe ----------------------------------------------------------------


@dataclass
class Recipe:
    file_id: str  # 64 hex chars
    pathname: str
    size: int
    scheme: int
    keying: str
    state_version: int
    entries: list = field(default_factory=list)  # (fp, length, segment index)

    @property
    def chunk_count(self) -> int:
        return len(self.entries)

    def encode(self) -> bytes:
        parts = [wire.u32(RECIPE_FORMAT), bytes.fromhex(self.file_id),
                 wire.prefixed(self.pathname.encode("utf-8")),
                 wire.u64(self.size), wire.u64(len(self.entries)),
                 bytes([self.scheme, 1 if self.keying == KEYING_SIMILARITY else 0]),
                 wire.u32(self.state_version)]
        for fp, length, seg_idx in self.entries:
            parts.append(fp + wire.u32(length) + wire.u32(seg_idx))
        return b"".join(parts)

    @classmethod
    def decode(cls, blob: bytes) -> "Recipe":
        r = wire.Reader(blob)
        if r.u32() != RECIPE_FORMAT:
            raise ValueError("unsupported recipe format")
        file_id = r.take(32).hex()
        pathname = r.bytes_u32().decode("utf-8")
        size = r.u64()
        count = r.u64()
        scheme = r.u8()
        keying = KEYING_SIMILARITY if r.u8() else KEYING_CHUNK
        state_version = r.u32()
        entries = [(r.take(32), r.u32(), r.u32()) for _ in range(count)]
        r.done()
        recipe = cls(file_id=file_id, pathname=pathname, size=size, scheme=scheme,
                     keying=keying, state_version=state_version, entries=entries)
        if sum(length for _, length, _ in entries) != size:
            raise ValueError("recipe chunk lengths do not add up to the file size")
        return recipe


# -- pipelines ----------------------------------------------------------------------


def _chunk_keys(chunks: list[Chunk], fps: list[bytes], keying: str,
                keys: KeySession, seg_params: SegmentationParams):
    """Returns (per-chunk key list, per-chunk segment index list)."""
    if keying == KEYING_CHUNK:
        return keys.keys_for_fingerprints(fps), list(range(len(chunks)))
    segments = segment(list(zip(chunks, fps)), seg_params)
    seg_keys = keys.segment_keys(segments)
    per_chunk = []
    seg_idx = []
    for i, seg in enumerate(segments):
        per_chunk.extend([seg_keys[i]] * len(seg.chunks))
        seg_idx.extend([i] * len(seg.chunks))
    return per_chunk, seg_idx


def upload(path: str, *, policy: list[str], identity: ClientIdentity,
           store: StoreSession, keys: KeySession,
           scheme: int = caont.SCHEME_ENHANCED,
           keying: str = KEYING_SIMILARITY,
           chunk_params: ChunkingParams | None = None,
           seg_params: SegmentationParams | None = None,
           allow_basic_with_similarity: bool = False) -> str:
    """Run the full upload pipeline; returns the file id."""
    members = sorted(set(policy))
    if not members:
        raise PolicyEmpty("upload requires a non-empty policy")
    if (scheme == caont.SCHEME_BASIC and keying == KEYING_SIMILARITY
            and not allow_basic_with_similarity):
        raise SchemeNotAllowed(
            "the basic scheme is refused under segment keying: one shared mask "
            "key leaks chunk XORs; use the enhanced scheme or per-chunk keying")
    chunk_params = chunk_params or ChunkingParams()
    seg_params = seg_params or SegmentationParams(
        avg_chunk_size=chunk_params.avg_size if chunk_params.mode == "rabin"
        else chunk_params.fixed_size)

    with open(path, "rb") as fh:
        data = fh.read()
    file_id = file_id_for(identity.user_id, path)
    chunks = chunk_stream(data, chunk_params)
    fps = [fingerprint(c) for c in chunks]

    if chunks:
        per_chunk_keys, seg_idx = _chunk_keys(chunks, fps, keying, keys, seg_params)
    else:
        per_chunk_keys, seg_idx = [], []

    # CAONT holds the interpreter lock, so a thread pool here only adds cost.
    packages = [caont.encrypt_chunk(scheme, chunk.data, key)
                for chunk, key in zip(chunks, per_chunk_keys)]

    directory = {}
    for uid in members:
        try:
            directory[uid] = load_access_public(store.get_user_key(uid))
        except NotFound:
            raise UnknownUser(f"no registered public access key for {uid!r}") from None

    state = new_state(identity.user_id, identity.derivation)
    file_key = derive_file_key(state)
    stub_blob = caont.encrypt_stub_file([stub for _, stub in packages], file_key)
    wrapped = wrap_state(state, members, directory)

    recipe = Recipe(file_id=file_id, pathname=path, size=len(data), scheme=scheme,
                    keying=keying, state_version=state.version)
    batch: list[tuple[bytes, bytes]] = []
    batch_bytes = 0
    for (trimmed, _), chunk, idx in zip(packages, chunks, seg_idx):
        fp = hashlib.sha256(trimmed).digest()
        recipe.entries.append((fp, chunk.length, idx))
        if batch and batch_bytes + len(trimmed) > TRANSFER_BATCH:
            store.put_packages(batch)
            batch, batch_bytes = [], 0
        batch.append((fp, trimmed))
        batch_bytes += len(trimmed)
    if batch:
        store.put_packages(batch)

    store.put_recipe(file_id, recipe.encode())
    store.put_stub(file_id, state.version, stub_blob)
    store.put_state(file_id, state.version, wrapped)
    return file_id


def download(file_id: str, *, identity: ClientIdentity, store: StoreSession) -> bytes:
    """Fetch, verify, and reassemble a file; aborts on any tampered chunk."""
    recipe = Recipe.decode(store.get_recipe(file_id))
    state_version, wrapped = store.get_state(file_id)
    state = unwrap_state(wrapped, identity.access_key, identity.user_id)

    stub_version, stub_blob = store.get_stub(file_id)
    if stub_version > state.version:
        stub_version, stub_blob = store.get_stub(file_id, state.version)
    file_key = derive_file_key(unwind_to(state, stub_version))
    stubs = caont.decrypt_stub_file(stub_blob, file_key)
    if len(stubs) != recipe.chunk_count:
        raise IntegrityViolation("stub count does not match the recipe")

    trimmed: list[bytes] = []
    batch: list[bytes] = []
    batch_bytes = 0
    for fp, length, _ in recipe.entries:
        if batch and batch_bytes + length > TRANSFER_BATCH:
            trimmed.extend(store.get_packages(batch))
            batch, batch_bytes = [], 0
        batch.append(fp)
        batch_bytes += length
    if batch:
        trimmed.extend(store.get_packages(batch))

    data = b"".join(caont.decrypt_chunk(recipe.scheme, t, s)
                    for t, s in zip(trimmed, stubs))
    if len(data) != recipe.size:
        raise IntegrityViolation("reassembled size does not match the recipe")
    return data


def rekey_file(file_id: str, *, new_policy: list[str], mode: str,
               identity: ClientIdentity, store: StoreSession) -> int:
    """Advance the file's key state; returns the new version."""
    return rekeying.rekey(store, file_id=file_id, new_policy=new_policy,
                          mode=mode, user_id=identity.user_id,
                          access_private_key=identity.access_key,
                          derivation=identity.derivation)
