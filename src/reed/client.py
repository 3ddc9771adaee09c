"""Client-side orchestration: upload, download, and rekey pipelines.

An upload chunks the file, obtains one key per similarity segment (or per
chunk), transforms every chunk into a trimmed package plus stub, and sends
the server (i) the trimmed packages, (ii) the file recipe, (iii) the stub
file encrypted under the file key, and (iv) the key state wrapped under the
file's policy. Chunk keys and file keys never appear in any message.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import socket
import struct
import threading
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterable, Iterator

from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

from . import caont, wire
from .chunking import (Chunk, ChunkingParams, Segment, SegmentationParams,
                       chunk_stream, fingerprint, segment)
from .errors import (IntegrityViolation, InvalidOperand, NotOwner, SchemeNotAllowed,
                     TransportError)
from .keygen import KeySession
from .rekeying import (ACTIVE, LAZY, DerivationKeyPair, KeyState, access_public_pem,
                       derive_file_key, generate_access_keypair, new_state, unwind_to,
                       unwrap_state, wrap_state)
from . import rekeying
from .server import MAX_BLOB_ID, ServerStats, _atomic_write, _make_dirs

KEYING_CHUNK = "chunk"
KEYING_SIMILARITY = "similarity"
KEYINGS = (KEYING_CHUNK, KEYING_SIMILARITY)
# One average segment. It sizes the upload's read blocks and package batches
# and the download's fetches, so every request and reply frame. Against 4 MiB
# (2 vCPU, backups of 48 MiB snapshots) it cut peak RSS from 145 to 116 MB,
# and an in-process 24 MiB upload's traced peak from 21.3 to 7.2 MiB, for
# about 0.7 more round trips and 1.2 more fsyncs per MB; 512 KiB saved only
# 3 MB more, and doubles the requests again.
TRANSFER_BATCH = 1024 * 1024
# u32 format || u64 entry count || u8 scheme || u8 keying (1 similarity) ||
# entries; by the count, a recipe short of a whole entry reads as truncated
RECIPE_FORMAT = 2
_RECIPE_ENTRY = struct.Struct(">32sII")  # fingerprint, chunk length, segment index


class Connection:
    """Synchronous framed TCP connection; one request in flight at a time."""

    def __init__(self, host: str, port: int):
        try:
            self._sock = socket.create_connection((host, port), timeout=30)
        except OSError as exc:
            raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
        self._lock = threading.Lock()

    def request(self, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        """One exchange. A failed one (a timeout, a reset, an oversized
        reply) leaves the stream out of step, so it closes the socket and
        every later request raises TransportError. A payload over the frame
        limit is refused before it is sent, and the connection stays open."""
        wire.check_request_size(payload)
        with self._lock:
            try:
                wire.write_frame(self._sock, msg_type, payload)
                return wire.read_frame(self._sock)
            except TransportError:
                self.close()
                raise
            except OSError as exc:
                self.close()
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
        return wire.call(self._backend, msg_type, payload)

    def put_packages(self, items: list[tuple[bytes, bytes]]) -> int:
        body = self._call(wire.MSG_PUT_PACKAGES, wire.encode_package_items(items))
        return wire.Reader(body).u32()

    def get_packages(self, fps: list[bytes]) -> list[memoryview]:
        """The packages in request order, as views of the reply frame."""
        body = self._call(wire.MSG_GET_PACKAGES, wire.encode_fingerprint_list(fps))
        return wire.decode_byte_list(body)

    def _put_blob(self, msg_type: int, obj_id: str, version: int, blob: bytes,
                  expected_prev: int | None = None) -> None:
        self._call(msg_type, wire.encode_blob_put(obj_id, version, blob, expected_prev))

    def _get_blob(self, msg_type: int, obj_id: str) -> tuple[int, bytes]:
        body = self._call(msg_type, wire.encode_blob_get(obj_id))
        return wire.decode_blob_response(body)

    def put_recipe(self, file_id: str, blob: bytes) -> None:
        self._put_blob(wire.MSG_RECIPE, file_id, 0, blob)

    def get_recipe(self, file_id: str) -> bytes:
        return self._get_blob(wire.MSG_RECIPE, file_id)[1]

    def put_stub(self, file_id: str, version: int, blob: bytes) -> None:
        self._put_blob(wire.MSG_STUB_FILE, file_id, version, blob)

    def get_stub(self, file_id: str) -> tuple[int, bytes]:
        return self._get_blob(wire.MSG_STUB_FILE, file_id)

    def put_state(self, file_id: str, version: int, blob: bytes,
                  expected_prev: int | None = None) -> None:
        self._put_blob(wire.MSG_WRAPPED_STATE, file_id, version, blob, expected_prev)

    def get_state(self, file_id: str) -> tuple[int, bytes]:
        return self._get_blob(wire.MSG_WRAPPED_STATE, file_id)

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
    access_key: X25519PrivateKey
    derivation: DerivationKeyPair

    @classmethod
    def create(cls, user_id: str) -> "ClientIdentity":
        """New keys for user_id, which the server's key record is named by."""
        if not 0 < len(user_id.encode("utf-8")) <= MAX_BLOB_ID:
            raise ValueError(f"user id {user_id!r} must be 1 to {MAX_BLOB_ID} UTF-8 bytes")
        return cls(user_id=user_id,
                   access_key=generate_access_keypair(),
                   derivation=DerivationKeyPair.generate())

    def save(self, directory: str) -> None:
        _make_dirs(directory)
        pem = self.access_key.private_bytes(
            serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption())
        _atomic_write(os.path.join(directory, "access_key.pem"), pem, mode=0o600)
        deriv = self.derivation
        meta = {"user_id": self.user_id,
                "derivation": {"n": hex(deriv.n), "e": deriv.e, "d": hex(deriv.d),
                               "p": hex(deriv.p), "q": hex(deriv.q)}}
        _atomic_write(os.path.join(directory, "identity.json"),
                      json.dumps(meta).encode("utf-8"), mode=0o600)

    @classmethod
    def load(cls, directory: str) -> "ClientIdentity":
        meta_path = os.path.join(directory, "identity.json")
        with open(meta_path) as fh:
            meta = json.load(fh)
        fields = meta["derivation"]
        if "p" not in fields or "q" not in fields:
            raise ValueError(f"{meta_path} has no primes p and q: it was written before "
                             f"identities kept them, and this build does not load it")
        key_path = os.path.join(directory, "access_key.pem")
        with open(key_path, "rb") as fh:
            key = serialization.load_pem_private_key(fh.read(), password=None)
        if not isinstance(key, X25519PrivateKey):
            raise ValueError(f"{key_path} holds no X25519 private key: it predates X25519 "
                             f"access keys, and this build does not load it")
        deriv = DerivationKeyPair(n=int(fields["n"], 16), e=fields["e"],
                                  d=int(fields["d"], 16), p=int(fields["p"], 16),
                                  q=int(fields["q"], 16))
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
    """The chunks of a file, in order. The blob's name is the file id and
    the state record holds the version, so the recipe repeats neither, and
    the owner's path never reaches the store."""

    scheme: int
    keying: str
    entries: list = field(default_factory=list)  # (fp, length, segment index)

    @property
    def size(self) -> int:
        return sum(length for _, length, _ in self.entries)

    @property
    def chunk_count(self) -> int:
        return len(self.entries)

    def encode(self) -> bytes:
        parts = [wire.u32(RECIPE_FORMAT), wire.u64(len(self.entries)),
                 bytes([self.scheme, 1 if self.keying == KEYING_SIMILARITY else 0])]
        parts.extend(_RECIPE_ENTRY.pack(*entry) for entry in self.entries)
        return b"".join(parts)

    @classmethod
    def decode(cls, blob: bytes) -> "Recipe":
        """Parse a recipe. Any damage, and any other format, raises
        IntegrityViolation naming it, as a damaged stub file or package does."""
        r = wire.Reader(blob)
        try:
            fmt = r.u32()
            if fmt != RECIPE_FORMAT:
                raise IntegrityViolation(f"unsupported recipe format {fmt}: this "
                                         f"build reads only format {RECIPE_FORMAT}")
            count = r.u64()
            scheme, keying = r.u8(), r.u8()
            entries = list(_RECIPE_ENTRY.iter_unpack(r.take(count * _RECIPE_ENTRY.size)))
            r.done()
        except InvalidOperand as exc:
            raise IntegrityViolation(f"damaged recipe: {exc}") from None
        if scheme not in caont.SCHEME_NAMES:
            raise IntegrityViolation(f"recipe names no scheme: scheme byte {scheme}")
        if keying > 1:
            raise IntegrityViolation(f"recipe names no keying: keying byte {keying}")
        return cls(scheme=scheme, keying=KEYING_SIMILARITY if keying else KEYING_CHUNK,
                   entries=entries)


# -- pipelines ----------------------------------------------------------------------
#
# An upload is one pass of generator stages, each pulling from the last:
# read the file in TRANSFER_BATCH blocks, chunk each block, segment and key
# the chunks, transform each chunk into a package, and ship the packages in
# TRANSFER_BATCH batches. Memory is bounded by the open segment (up to twice
# the average segment size) plus a block and a batch of the same order;
# only a recipe entry and a 64-byte stub per chunk grow with the file.


def _batches(items: Iterable, size: Callable[[object], int]) -> Iterator[list]:
    """Consecutive runs of items of at most TRANSFER_BATCH bytes; an item
    larger than that travels alone."""
    batch: list = []
    total = 0
    for item in items:
        n = size(item)
        if batch and total + n > TRANSFER_BATCH:
            yield batch
            batch, total = [], 0
        batch.append(item)
        total += n
    if batch:
        yield batch


def _read_blocks(fh: BinaryIO, size: int = TRANSFER_BATCH
                 ) -> Iterator[tuple[bytes, bool]]:
    """(block, is last block) pairs; a short read marks the end of the file."""
    while True:
        block = fh.read(size)
        last = len(block) < size
        yield block, last
        if last:
            return


def _chunk_blocks(blocks: Iterable[tuple[bytes, bool]], params: ChunkingParams
                  ) -> Iterator[tuple[list[Chunk], bool]]:
    """The chunks each block completes, cut exactly as one pass over the file.

    A block's last chunk was cut by the block's end, not by its content, so
    it is carried and cut again with the next block. Every other cut is the
    one-shot chunker's: it is the first candidate at or after start +
    min_size, or start + max_size, and a candidate there depends only on
    bytes after start.
    """
    carry = b""
    for block, last in blocks:
        chunks = chunk_stream(carry + block, params)
        carry = b""
        if chunks and not last:
            carry = chunks.pop().data
        yield chunks, last
        del chunks  # so the next block is read and chunked without them


def _keyed_chunks(chunk_blocks: Iterable[tuple[list[Chunk], bool]], keying: str,
                  keys: KeySession, seg_params: SegmentationParams
                  ) -> Iterator[tuple[Chunk, bytes, int]]:
    """(chunk, key, segment index) in file order, with one key request per block.

    Every chunk takes the key of its segment's representative fingerprint.
    Under similarity keying a block's chunks are segmented after the chunks
    of the still-open segment. Every segment but the last is sealed, since
    segment boundaries depend only on the chunks since the last boundary;
    the last stays open for the next block. Under chunk keying every chunk
    is its own segment, represented by its own fingerprint.
    """
    open_pairs: list = []
    index = 0
    for chunks, last in chunk_blocks:
        pairs = open_pairs + [(c, fingerprint(c)) for c in chunks]
        del chunks  # only open_pairs may hold chunks while the next block is read
        if not pairs:
            continue
        if keying == KEYING_CHUNK:
            segments = [Segment(chunks=[pair], representative=pair[1]) for pair in pairs]
        else:
            segments = segment(pairs, seg_params)
            open_pairs = [] if last else segments.pop().chunks
        del pairs
        if not segments:
            continue
        seg_keys = keys.keys_for_fingerprints([s.representative for s in segments])
        for seg, key in zip(segments, seg_keys):
            for chunk, _ in seg.chunks:
                yield chunk, key, index
            index += 1
        del segments, seg


def store_file(chunk_blocks: Iterable[tuple[list[Chunk], bool]], path: str, *,
               policy: list[str], identity: ClientIdentity, store: StoreSession,
               keys: KeySession, scheme: int, keying: str,
               seg_params: SegmentationParams) -> str:
    """Store a file given as chunk blocks, each flagged whether it is the last,
    and commit it at version 0; returns its file id. Every file is stored
    through here, and nothing is sent before the arguments pass and the new
    state is wrapped to the policy."""
    if scheme not in caont.SCHEME_NAMES:
        raise ValueError(f"unknown scheme id {scheme}")
    if keying not in KEYINGS:
        raise ValueError(f"keying must be one of {', '.join(KEYINGS)}, not {keying!r}")
    if scheme == caont.SCHEME_BASIC and keying == KEYING_SIMILARITY:
        raise SchemeNotAllowed(
            "the basic scheme is refused under segment keying: one shared mask "
            "key leaks chunk XORs; use the enhanced scheme or per-chunk keying")
    # refused here, before any package is sent; the wrap needs no package
    state = new_state(identity.user_id, identity.derivation)
    wrapped = wrap_state(state, rekeying.resolve_policy(store, policy))

    file_id = file_id_for(identity.user_id, path)
    entries: list = []
    stubs = bytearray()  # the stub file's plaintext, stub i for chunk i

    def packages():
        for chunk, key, index in _keyed_chunks(chunk_blocks, keying, keys, seg_params):
            # CAONT holds the interpreter lock, so a thread pool here only adds cost.
            trimmed, stub = caont.encrypt_chunk(scheme, chunk.data, key)
            fp = hashlib.sha256(trimmed).digest()
            entries.append((fp, chunk.length, index))
            stubs.extend(stub)
            yield fp, trimmed

    for batch in _batches(packages(), lambda item: len(item[1])):
        store.put_packages(batch)

    stub_blob = caont.encrypt_stub_file(stubs, derive_file_key(state))
    store.put_recipe(file_id, Recipe(scheme, keying, entries).encode())
    store.put_stub(file_id, state.version, stub_blob)
    store.put_state(file_id, state.version, wrapped)
    return file_id


def upload(path: str, *, policy: list[str], identity: ClientIdentity,
           store: StoreSession, keys: KeySession,
           scheme: int = caont.SCHEME_ENHANCED,
           keying: str = KEYING_SIMILARITY,
           chunk_params: ChunkingParams | None = None,
           seg_params: SegmentationParams | None = None) -> str:
    """Store the file at path, read one block at a time; returns the file id."""
    chunk_params = chunk_params or ChunkingParams()
    seg_params = seg_params or SegmentationParams(avg_chunk_size=chunk_params.avg_size)
    with open(path, "rb") as fh:
        return store_file(_chunk_blocks(_read_blocks(fh), chunk_params), path,
                          policy=policy, identity=identity, store=store, keys=keys,
                          scheme=scheme, keying=keying, seg_params=seg_params)


def _read_state_and_stubs(file_id: str, identity: ClientIdentity, store: StoreSession
                          ) -> tuple[int, KeyState, bytes]:
    """The version of the file's state record, its state, and its stub file's
    plaintext. The stub file is read first: a stub version is written only
    after the state of that version commits, and state versions only go up,
    so the state read next can always unwind to the stub file's version (an
    upload's stub v0 has no state before it)."""
    stub_version, stub_blob = store.get_stub(file_id)
    version, wrapped = store.get_state(file_id)
    state = unwrap_state(wrapped, identity.access_key, identity.user_id)
    file_key = derive_file_key(unwind_to(state, stub_version))
    return version, state, caont.decrypt_stub_file(stub_blob, file_key)


def download_to(file_id: str, sink: BinaryIO, *, identity: ClientIdentity,
                store: StoreSession) -> int:
    """Fetch, verify and write a file to sink one batch at a time; returns
    its size. Aborts on any tampered chunk, after writing the batches before
    it."""
    recipe = Recipe.decode(store.get_recipe(file_id))
    stubs = memoryview(_read_state_and_stubs(file_id, identity, store)[2])
    if len(stubs) != caont.STUB_SIZE * recipe.chunk_count:
        raise IntegrityViolation("stub count does not match the recipe")

    written = 0
    at = 0  # offset of the next chunk's stub
    for batch in _batches(recipe.entries, lambda entry: entry[1]):
        packages = store.get_packages([fp for fp, _, _ in batch])
        end = at + caont.STUB_SIZE * len(batch)
        plains = [caont.decrypt_chunk(recipe.scheme, package, stubs[i:i + caont.STUB_SIZE])
                  for package, i in zip(packages, range(at, end, caont.STUB_SIZE))]
        # The packages are views of one reply frame. Dropping them before
        # the sink grows lets an in-memory sink reuse the frame's memory,
        # instead of mapping fresh pages for every batch.
        del packages
        for plain in plains:
            sink.write(plain)
            written += len(plain)
        at = end
        del plains  # before the next batch is fetched
    if written != recipe.size:
        raise IntegrityViolation("reassembled size does not match the recipe")
    return written


def download(file_id: str, *, identity: ClientIdentity, store: StoreSession) -> bytes:
    """Fetch, verify, and reassemble a file; aborts on any tampered chunk."""
    buf = io.BytesIO()
    download_to(file_id, buf, identity=identity, store=store)
    return buf.getvalue()


def rekey_file(file_id: str, *, new_policy: list[str], mode: str,
               identity: ClientIdentity, store: StoreSession) -> int:
    """Advance the owner's file to a new key state wrapped under new_policy;
    returns the new version. Trimmed packages are never touched.

    The state compare-and-set is the serialization point: a rekey that
    commits after this one's reads makes it raise VersionConflict before it
    writes anything. An active rekey reads and decrypts the stub file before
    that point, so a damaged one commits nothing, and re-encrypts it under
    the new file key after it. That put replaces the server's only copy, so
    a revoked member's old file key opens no stub file the server keeps. A
    crash between the two puts leaves a readable file whose stub file is one
    unwind behind.
    """
    if mode not in (LAZY, ACTIVE):
        raise ValueError(f"unknown rekey mode {mode!r}")
    if mode == ACTIVE:
        current, state, stubs = _read_state_and_stubs(file_id, identity, store)
    else:
        current, wrapped = store.get_state(file_id)
        state = unwrap_state(wrapped, identity.access_key, identity.user_id)
    if state.owner_id != identity.user_id:
        raise NotOwner(f"{identity.user_id!r} does not own this file")
    new = rekeying.wind(state, identity.derivation)
    wrapped = wrap_state(new, rekeying.resolve_policy(store, new_policy))
    store.put_state(file_id, new.version, wrapped, expected_prev=current)
    if mode == ACTIVE:
        # below a later active rekey's stub file, this put changes nothing
        store.put_stub(file_id, new.version,
                       caont.encrypt_stub_file(stubs, derive_file_key(new)))
    return new.version
