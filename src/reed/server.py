"""Dedup server: fingerprint index, container packing, blob stores, service.

Trimmed packages are deduplicated by their SHA-256 fingerprint and packed
into append-only 4MB containers. Recipes and stub files live under the data
root; wrapped key states and user public keys live under a separate key
root, each as one record of its current version only (see BlobStore). The
index is an append-only log replayed into memory at startup. It is the one
durable record of an acknowledged package batch: each batch appends its new
package records and a batch record of its logical bytes with one fsync, so
the log also holds the store's logical and physical byte counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass

from . import wire
from .errors import (FingerprintMismatch, InvalidOperand, NotFound, StorageUnavailable,
                     TransportError, VersionConflict)

CONTAINER_SIZE = 4 * 1024 * 1024
_INDEX_RECORD = struct.Struct(">32sIII")  # fp, container id, offset, length
_BATCH_FP = bytes(32)  # no package hashes to it; the record's length is logical bytes
_MAX_LENGTH = 0xFFFFFFFF


def _batch_records(logical: int) -> list[bytes]:
    """Batch records carrying logical bytes: one, or more if the count
    exceeds a record's u32 length."""
    full, rest = divmod(logical, _MAX_LENGTH)
    return [_INDEX_RECORD.pack(_BATCH_FP, 0, 0, n) for n in [_MAX_LENGTH] * full + [rest]]


class FingerprintIndex:
    """fingerprint -> (container, offset, length), backed by an append log,
    plus the store's logical and physical byte counts.

    A batch is one append: its new package records, then a batch record,
    which has the zero fingerprint and the batch's logical bytes as its
    length, and never enters the table. Replay keeps the log up to its last
    batch record and cuts the rest, which no batch acknowledged.

    A new log starts with an empty batch record, so a log with whole
    records and no batch record was written before batch records existed.
    Such a log is refused before the open writes anything: replay would cut
    every record, and container recovery would then empty the containers.
    """

    def __init__(self, path: str):
        self._table: dict[bytes, tuple[int, int, int]] = {}
        self.logical_bytes = 0
        self.physical_bytes = 0
        data = b""
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
        kept, pending = 0, []
        whole = len(data) - len(data) % _INDEX_RECORD.size
        for off in range(0, whole, _INDEX_RECORD.size):
            fp, cid, coff, length = _INDEX_RECORD.unpack_from(data, off)
            if fp != _BATCH_FP:
                pending.append((fp, cid, coff, length))
                continue
            self._apply(pending, length)
            pending = []
            kept = off + _INDEX_RECORD.size
        if not kept and pending:
            raise StorageUnavailable(
                f"{path} holds package records and no batch record: it was written "
                f"before batch records existed, and this build does not open it")
        if kept < len(data):
            with open(path, "r+b") as fh:
                fh.truncate(kept)
        self._fh = open(path, "ab")
        try:
            if not kept:  # a new log, or one whose empty batch record was cut
                self._write(_INDEX_RECORD.pack(_BATCH_FP, 0, 0, 0))
            _fsync_dir(os.path.dirname(path))  # the log's name
        except BaseException:
            self._fh.close()
            raise

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, fp: bytes) -> bool:
        return fp in self._table

    def length(self, fp: bytes) -> int | None:
        """The indexed length of fp's package, or None if fp is not indexed."""
        entry = self._table.get(fp)
        return None if entry is None else entry[2]

    def get(self, fp: bytes) -> tuple[int, int, int]:
        try:
            return self._table[fp]
        except KeyError:
            raise NotFound(f"unknown fingerprint {fp.hex()}") from None

    def entries(self):
        return self._table.items()

    def append(self, records: list[tuple[bytes, int, int, int]], logical: int) -> None:
        """Make a batch durable: its new records and its batch record in one
        append and one fsync. A batch with no bytes writes nothing."""
        if not records and not logical:
            return
        self._write(b"".join([_INDEX_RECORD.pack(*rec) for rec in records]
                             + _batch_records(logical)))
        self._apply(records, logical)

    def _write(self, buf: bytes) -> None:
        self._fh.write(buf)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def _apply(self, records, logical: int) -> None:
        for fp, cid, coff, length in records:
            self._table[fp] = (cid, coff, length)
            self.physical_bytes += length
        self.logical_bytes += logical

    def close(self) -> None:
        self._fh.close()


class ContainerStore:
    """Append-only container files; rotation keeps each at or below capacity."""

    def __init__(self, root: str, capacity: int = CONTAINER_SIZE):
        self.root = root
        self.capacity = capacity
        _make_dirs(root)
        self._open_id = 0
        self._open_size = 0
        self._fh = None

    def _path(self, cid: int) -> str:
        return os.path.join(self.root, f"{cid:08d}.bin")

    def recover(self, index: FingerprintIndex) -> None:
        """Resume after the last indexed byte; drop every unacknowledged tail.

        Bytes the index does not know were never acknowledged. The resumed
        container is cut back to its last indexed byte, and container files
        past it (left by a rotation that crashed before its index records
        were written) are removed, so later appends land at the offsets
        they record. A container that is missing or shorter than its last
        indexed byte lost acknowledged packages, so the store refuses to
        open rather than fail each later read of them.
        """
        ends: dict[int, int] = {}
        for _, (cid, off, length) in index.entries():
            ends[cid] = max(ends.get(cid, 0), off + length)
        for cid, end in sorted(ends.items()):
            path = self._path(cid)
            name = os.path.basename(path)
            try:
                size = os.path.getsize(path)
            except FileNotFoundError:
                raise StorageUnavailable(
                    f"container {name} is missing: the index records {end} bytes in it"
                ) from None
            if size < end:
                raise StorageUnavailable(
                    f"container {name} holds {size} bytes, {end - size} short of the "
                    f"{end} the index records")
        self._open_id = max(ends, default=0)
        self._open_size = ends.get(self._open_id, 0)
        for name in os.listdir(self.root):
            stem, ext = os.path.splitext(name)
            if ext != ".bin" or not stem.isdigit():
                continue
            cid, path = int(stem), os.path.join(self.root, name)
            if cid > self._open_id:
                os.remove(path)
            elif cid == self._open_id and os.path.getsize(path) > self._open_size:
                with open(path, "r+b") as fh:
                    fh.truncate(self._open_size)

    def _ensure_open(self):
        if self._fh is None:
            self._fh = open(self._path(self._open_id), "ab")
            if self._open_size == 0:
                # a container with no indexed bytes may be new, and a new
                # file's name is durable only once its directory is fsynced
                _fsync_dir(self.root)

    def append(self, data: bytes) -> tuple[int, int]:
        if len(data) > self.capacity:
            raise ValueError("item exceeds container capacity")
        if self._open_size and self._open_size + len(data) > self.capacity:
            self.close()  # after recover() the open container has no handle yet
            self._open_id += 1
            self._open_size = 0
        self._ensure_open()
        offset = self._open_size
        self._fh.write(data)
        self._open_size += len(data)
        return self._open_id, offset

    def flush(self) -> None:
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def read(self, spans: list[tuple[int, int, int]]) -> list[bytes]:
        """Read (container, offset, length) spans in the order given, opening
        each container once.

        Every indexed span is already on disk: store_packages flushes and
        fsyncs the container before it writes the span's index record.
        """
        fds: dict[int, int] = {}
        try:
            out = []
            for cid, offset, length in spans:
                if cid not in fds:
                    fds[cid] = os.open(self._path(cid), os.O_RDONLY)
                out.append(os.pread(fds[cid], length, offset))
            return out
        finally:
            for fd in fds.values():
                os.close(fd)

    @property
    def count(self) -> int:
        return self._open_id + (1 if self._open_size else 0)

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None


def _atomic_write(path: str, *parts) -> None:
    """Replace path with the byte buffers parts, written one after another
    and fsynced before the rename."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        for part in parts:
            fh.write(part)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _fsync_dir(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _make_dirs(path: str) -> None:
    """os.makedirs that fsyncs the parent of each directory it creates, so
    that files made in it later are not lost with its name."""
    if os.path.isdir(path):
        return
    parent = os.path.dirname(os.path.abspath(path))
    _make_dirs(parent)
    with contextlib.suppress(FileExistsError):
        os.mkdir(path)
    _fsync_dir(parent)


_VERSION = struct.Struct(">I")
MAX_BLOB_ID = 125  # UTF-8 bytes, so that the hex name plus ".tmp" fits NAME_MAX


class BlobStore:
    """Id-addressed blobs, one record per object: ``<kind>/<hex id>`` holds
    ``u32 version || blob`` for the current version only.

    A put at or above the current version replaces the record, so the old
    blob is gone once the rename lands. A put below it is acknowledged and
    changes nothing, because the newer version wins. No older version is
    needed: key regression unwinds the current key state to the file key of
    any older stub file.

    Opening only reads, and refuses a kind directory that holds a
    directory: that is an object of the layout before one record per blob.
    recover() then makes the root and removes what unacknowledged puts
    left behind.
    """

    def __init__(self, root: str):
        self.root = root
        self._lock = threading.Lock()
        self._sizes: dict[str, int] = {}  # kind -> stored blob bytes
        self._unacknowledged: list[str] = []
        for kind in os.listdir(root) if os.path.isdir(root) else []:
            size = 0
            with os.scandir(os.path.join(root, kind)) as entries:
                for entry in entries:
                    if entry.is_dir():
                        raise StorageUnavailable(
                            f"{entry.path} is a directory: an object of the blob layout "
                            f"before one record per blob, which this build does not open")
                    if entry.name.endswith(".tmp"):  # a put never acknowledged
                        self._unacknowledged.append(entry.path)
                    else:
                        size += entry.stat().st_size - _VERSION.size
            self._sizes[kind] = size

    def recover(self) -> None:
        _make_dirs(self.root)
        for path in self._unacknowledged:
            os.remove(path)

    def _path(self, kind: str, obj_id: str) -> str:
        return os.path.join(self.root, kind, obj_id.encode("utf-8").hex())

    def put(self, kind: str, obj_id: str, version: int, blob,
            expected_prev: int | None = None) -> None:
        """Store blob, any byte buffer, as the object's record at version."""
        path = self._path(kind, obj_id)
        with self._lock:
            current, old_size = None, 0
            try:
                with open(path, "rb") as fh:
                    current = _VERSION.unpack(fh.read(_VERSION.size))[0]
                    old_size = os.fstat(fh.fileno()).st_size - _VERSION.size
            except FileNotFoundError:
                _make_dirs(os.path.dirname(path))
            if expected_prev is not None and current != expected_prev:
                raise VersionConflict(
                    f"{kind}/{obj_id}: current version is {current}, expected {expected_prev}")
            if current is not None and version < current:
                return
            _atomic_write(path, _VERSION.pack(version), blob)
            self._sizes[kind] = self._sizes.get(kind, 0) + len(blob) - old_size
            _fsync_dir(os.path.dirname(path))

    def get(self, kind: str, obj_id: str) -> tuple[int, bytes]:
        try:
            fh = open(self._path(kind, obj_id), "rb")
        except FileNotFoundError:
            raise NotFound(f"{kind}/{obj_id} does not exist") from None
        with fh:
            return _VERSION.unpack(fh.read(_VERSION.size))[0], fh.read()

    def stored_bytes(self, kind: str) -> int:
        with self._lock:
            return self._sizes.get(kind, 0)


@dataclass(frozen=True)
class ServerStats:
    logical_bytes: int
    physical_bytes: int
    stub_bytes: int
    container_count: int
    index_entries: int

    @property
    def saving(self) -> float:
        if self.logical_bytes == 0:
            return 0.0
        return 1.0 - (self.physical_bytes + self.stub_bytes) / self.logical_bytes


_BLOB_KINDS = {
    wire.MSG_RECIPE: "recipe",
    wire.MSG_STUB_FILE: "stub",
    wire.MSG_WRAPPED_STATE: "state",
    wire.MSG_USER_KEY: "userkey",
}
_KEY_KINDS = {"state", "userkey"}


class StorageService:
    """Message-level service; the TCP layer and tests share this object."""

    def __init__(self, data_root: str, key_root: str,
                 container_size: int = CONTAINER_SIZE):
        _make_dirs(data_root)
        _make_dirs(key_root)
        self.data_root = data_root
        self.key_root = key_root
        self._lock = threading.RLock()
        # A root of an older layout is refused before the open writes to it.
        self.data_blobs = BlobStore(os.path.join(data_root, "blobs"))
        self.key_blobs = BlobStore(os.path.join(key_root, "blobs"))
        self.index = FingerprintIndex(os.path.join(data_root, "index.log"))
        self.containers = ContainerStore(os.path.join(data_root, "containers"),
                                         container_size)
        try:
            self.containers.recover(self.index)
            self.data_blobs.recover()
            self.key_blobs.recover()
        except BaseException:
            self.index.close()
            raise

    def close(self) -> None:
        self.containers.close()
        self.index.close()

    # -- operations --------------------------------------------------------

    def store_packages(self, items: list[tuple[bytes, bytes]]) -> int:
        """Atomically ingest a batch; duplicates cost no container bytes.

        The batch is acknowledged once its index append is fsynced. A
        fingerprint is hashed once per batch: an indexed one, or a later
        copy of a new one, is discarded unhashed, but must have the length
        the fingerprint is known by, so that logical_bytes counts what the
        index holds. The index only grows, so a fingerprint found here
        without the lock stays indexed.
        """
        fresh: dict[bytes, int] = {}  # fingerprints new to the index -> length
        for fp, data in items:
            known = self.index.length(fp)
            if known is None:
                known = fresh.get(fp)
            if known is not None:
                if len(data) != known:
                    raise FingerprintMismatch(
                        f"package of {len(data)} bytes for {fp.hex()}, indexed with "
                        f"{known} bytes; batch rejected")
                continue
            if hashlib.sha256(data).digest() != fp:
                raise FingerprintMismatch(
                    f"package does not hash to {fp.hex()}; batch rejected")
            if len(data) > self.containers.capacity:
                raise InvalidOperand(
                    f"package of {len(data)} bytes exceeds the container size "
                    f"{self.containers.capacity}; batch rejected")
            fresh[fp] = len(data)
        with self._lock:
            records = []
            for fp, data in items:
                if fresh.pop(fp, None) is None or fp in self.index:
                    continue
                cid, off = self.containers.append(data)
                records.append((fp, cid, off, len(data)))
            if records:
                self.containers.flush()
            self.index.append(records, sum(len(data) for _, data in items))
            return len(records)

    def get_packages(self, fps: list[bytes]) -> list[bytes]:
        with self._lock:
            spans = [self.index.get(fp) for fp in fps]
        return self.containers.read(spans)

    def stats(self) -> ServerStats:
        with self._lock:
            return ServerStats(
                logical_bytes=self.index.logical_bytes,
                physical_bytes=self.index.physical_bytes,
                stub_bytes=self.data_blobs.stored_bytes("stub"),
                container_count=self.containers.count,
                index_entries=len(self.index),
            )

    # -- wire dispatch -------------------------------------------------------

    def handle_frame(self, msg_type: int, payload: bytes, client_id: str) -> bytes:
        if msg_type == wire.MSG_PUT_PACKAGES:
            return wire.u32(self.store_packages(wire.decode_package_items(payload)))
        if msg_type == wire.MSG_GET_PACKAGES:
            blobs = self.get_packages(wire.decode_fingerprint_list(payload))
            return wire.encode_byte_list(blobs)
        if msg_type in _BLOB_KINDS:
            return self._handle_blob(_BLOB_KINDS[msg_type], payload)
        if msg_type == wire.MSG_STATS:
            s = self.stats()
            return wire.encode_stats(s.logical_bytes, s.physical_bytes, s.stub_bytes,
                                     s.container_count, s.index_entries)
        raise InvalidOperand(f"unknown message type {msg_type:#x}")

    def _handle_blob(self, kind: str, payload: bytes) -> bytes:
        r = wire.Reader(payload)
        op = r.u8()
        obj_id = r.text()
        if not 0 < len(obj_id.encode("utf-8")) <= MAX_BLOB_ID:
            # an empty id would name the kind directory itself
            raise InvalidOperand(f"blob id must be 1 to {MAX_BLOB_ID} UTF-8 bytes")
        store = self.key_blobs if kind in _KEY_KINDS else self.data_blobs
        if op == wire.BLOB_PUT:
            version = r.u32()
            flags = r.u8()
            if flags & ~wire.PUT_EXPECTED_PREV:
                raise InvalidOperand(f"unknown blob put flags {flags:#04x}")
            expected = r.u32() if flags & wire.PUT_EXPECTED_PREV else None
            blob = r.view(r.u32())  # written straight from the request payload
            r.done()
            store.put(kind, obj_id, version, blob, expected)
            return b""
        if op == wire.BLOB_GET:
            r.done()
            return wire.encode_blob_response(*store.get(kind, obj_id))
        raise InvalidOperand(f"unknown blob op {op}")


class _FrameHandler(socketserver.BaseRequestHandler):
    def handle(self):
        client_id = self.client_address[0]
        while True:
            try:
                msg_type, payload = wire.read_frame(self.request)
            except TransportError as exc:
                # An oversized header: its body is never read, so the stream
                # is out of step and the connection ends after the answer.
                with contextlib.suppress(OSError):
                    wire.write_frame(self.request, wire.MSG_ERROR,
                                     wire.encode_error(wire.ERR_BAD_REQUEST, str(exc)))
                return
            except (ConnectionError, OSError):
                return
            resp_type, body = wire.respond(self.server.service, msg_type, payload, client_id)
            try:
                wire.write_frame(self.request, resp_type, body)
            except OSError:
                return


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _ThreadingServer6(_ThreadingServer):
    address_family = socket.AF_INET6


class FrameServer:
    """TCP front for any service exposing handle_frame(); a host with a
    ``:`` in it is an IPv6 address."""

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        server_cls = _ThreadingServer6 if ":" in host else _ThreadingServer
        self._server = server_cls((host, port), _FrameHandler)
        self._server.service = service
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]  # an IPv6 one has four fields

    def start(self) -> "FrameServer":
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="reed-server", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread:
            self._thread.join(timeout=5)
