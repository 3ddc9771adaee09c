"""Binary wire protocol shared by the dedup server and the key manager.

Frame layout: 4-byte big-endian payload length, 1-byte message type, payload.
All integers are big-endian. Request type ``T`` is answered with ``T | 0x80``
or with an error frame (type 0x7F, payload = 2-byte code plus UTF-8 message).

Blob message families (recipe, stub file, wrapped key state, user public
key) share one request type per family; the first payload byte selects the
operation (0x00 put, 0x01 get). A put carries a version and a flags byte:
bit 0 says an expected previous version follows, and any other bit is a bad
request. A get names only the id and is answered with the current version
and its blob; the server keeps no other version.
"""

from __future__ import annotations

import logging
import secrets
import socket
import struct

from . import errors

MAX_FRAME = 64 * 1024 * 1024

MSG_PUT_PACKAGES = 0x02
MSG_GET_PACKAGES = 0x03
MSG_RECIPE = 0x04
MSG_STUB_FILE = 0x05
MSG_WRAPPED_STATE = 0x06
MSG_USER_KEY = 0x07
MSG_STATS = 0x08
MSG_KEYGEN = 0x10
MSG_MANAGER_PUBKEY = 0x11
MSG_ERROR = 0x7F
RESP_FLAG = 0x80

BLOB_PUT = 0x00
BLOB_GET = 0x01
PUT_EXPECTED_PREV = 0x01

ERR_NOT_FOUND = 1
ERR_FINGERPRINT_MISMATCH = 2
ERR_VERSION_CONFLICT = 3
ERR_RATE_LIMITED = 4
ERR_BAD_REQUEST = 5
ERR_ACCESS_DENIED = 6
ERR_INTERNAL = 7

_ERR_EXC = {
    ERR_NOT_FOUND: errors.NotFound,
    ERR_FINGERPRINT_MISMATCH: errors.FingerprintMismatch,
    ERR_VERSION_CONFLICT: errors.VersionConflict,
    ERR_RATE_LIMITED: errors.RateLimited,
    ERR_BAD_REQUEST: errors.InvalidOperand,
    ERR_ACCESS_DENIED: errors.AccessDenied,
    ERR_INTERNAL: errors.StorageUnavailable,
}

# ERR_INTERNAL is sent only by respond(), with an incident id and no detail.
_EXC_ERR = {exc: code for code, exc in _ERR_EXC.items() if code != ERR_INTERNAL}

_log = logging.getLogger("reed")


def encode_error(code: int, message: str) -> bytes:
    return struct.pack(">H", code) + message.encode("utf-8")


def raise_for_frame(msg_type: int, payload: bytes) -> None:
    """Map an error frame back to the typed exception it encodes."""
    if msg_type != MSG_ERROR:
        return
    if len(payload) < 2:
        raise errors.TransportError("malformed error frame")
    code = struct.unpack(">H", payload[:2])[0]
    message = payload[2:].decode("utf-8", "replace")
    raise _ERR_EXC.get(code, errors.StorageUnavailable)(message)


def respond(service, msg_type: int, payload: bytes, client_id: str) -> tuple[int, bytes]:
    """(msg_type | RESP_FLAG, service.handle_frame(...)), or the error frame.

    An exception with no error code, even for a base class, is logged with
    its traceback under a random incident id, and only that id is sent back.
    """
    try:
        return msg_type | RESP_FLAG, service.handle_frame(msg_type, payload, client_id)
    except Exception as exc:  # the serving loop must answer and keep running
        code = next((_EXC_ERR[cls] for cls in type(exc).__mro__ if cls in _EXC_ERR), None)
        message = str(exc)
        if code is None:
            code, message = ERR_INTERNAL, f"internal error {secrets.token_hex(8)}"
            _log.exception("%s on message type %#04x from %s", message, msg_type, client_id)
        return MSG_ERROR, encode_error(code, message)


def call(backend, msg_type: int, payload: bytes) -> bytes:
    """The reply body; raises the error frame's exception or, for a reply of
    another type, TransportError."""
    resp_type, body = backend.request(msg_type, payload)
    raise_for_frame(resp_type, body)
    if resp_type != msg_type | RESP_FLAG:
        raise errors.TransportError(f"unexpected response type {resp_type:#x}")
    return body


# -- framing -------------------------------------------------------------------


_HEADER = struct.Struct(">IB")


def write_frame(sock: socket.socket, msg_type: int, payload: bytes) -> None:
    header = _HEADER.pack(len(payload), msg_type)
    sent = sock.sendmsg([header, payload])
    if sent < len(header):
        sock.sendall(header[sent:])
        sent = len(header)
    if sent < len(header) + len(payload):
        sock.sendall(memoryview(payload)[sent - len(header):])


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        part = sock.recv_into(view[got:])
        if not part:
            raise ConnectionError("peer closed the connection")
        got += part
    return buf


def read_frame(sock: socket.socket) -> tuple[int, bytearray]:
    """Receive one frame; the payload is a fresh buffer owned by the caller."""
    length, msg_type = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > MAX_FRAME:
        raise errors.TransportError(f"frame of {length} bytes exceeds the limit of "
                                    f"{MAX_FRAME} bytes")
    return msg_type, _recv_exact(sock, length)


class LocalBackend:
    """In-process request path used by the trace harness and tests.

    Answers through respond(), as the TCP server does, so both transports
    return the same reply and error frames for the same request.
    """

    def __init__(self, service, client_id: str = "local"):
        self._service = service
        self._client_id = client_id

    def request(self, msg_type: int, payload: bytes) -> tuple[int, bytes]:
        return respond(self._service, msg_type, payload, self._client_id)


# -- payload codecs --------------------------------------------------------------


_U8, _U32, _U64 = struct.Struct(">B"), struct.Struct(">I"), struct.Struct(">Q")


class Reader:
    """Cursor over a payload; raises InvalidOperand on truncation.

    The payload may be any buffer, such as the bytearray read_frame returns.
    take() and rest() return bytes copies, so fingerprints stay hashable;
    view() returns a read-only view of the payload, which keeps the whole
    payload alive while the view is referenced.
    """

    def __init__(self, data: bytes | bytearray | memoryview):
        self._data = memoryview(data).toreadonly()
        self._pos = 0

    @property
    def pos(self) -> int:
        return self._pos

    def view(self, n: int) -> memoryview:
        end = self._pos + n
        if end > len(self._data):
            raise errors.InvalidOperand("truncated payload")
        out = self._data[self._pos:end]
        self._pos = end
        return out

    def take(self, n: int) -> bytes:
        return bytes(self.view(n))

    def rest(self) -> bytes:
        return self.take(len(self._data) - self._pos)

    def _unpack(self, fmt: struct.Struct) -> int:
        return fmt.unpack(self.view(fmt.size))[0]

    def u8(self) -> int:
        return self._unpack(_U8)

    def u32(self) -> int:
        return self._unpack(_U32)

    def u64(self) -> int:
        return self._unpack(_U64)

    def bytes_u32(self) -> bytes:
        return self.take(self.u32())

    def text(self) -> str:
        """A u32-prefixed UTF-8 string; other bytes are a bad request."""
        try:
            return self.bytes_u32().decode("utf-8")
        except UnicodeDecodeError:
            raise errors.InvalidOperand("text field is not valid UTF-8") from None

    def done(self) -> None:
        if self._pos != len(self._data):
            raise errors.InvalidOperand("trailing bytes in payload")


def u32(value: int) -> bytes:
    return _U32.pack(value)


def u64(value: int) -> bytes:
    return _U64.pack(value)


def prefixed(data: bytes) -> bytes:
    return u32(len(data)) + data


def encode_fingerprint_list(fps: list[bytes]) -> bytes:
    parts = [u32(len(fps))]
    for fp in fps:
        if len(fp) != 32:
            raise errors.InvalidOperand("fingerprints must be 32 bytes")
        parts.append(fp)
    return b"".join(parts)


def decode_fingerprint_list(payload: bytes) -> list[bytes]:
    r = Reader(payload)
    region = r.take(32 * r.u32())
    r.done()
    return [region[i:i + 32] for i in range(0, len(region), 32)]


def encode_package_items(items: list[tuple[bytes, bytes]]) -> bytes:
    parts = [u32(len(items))]
    for fp, data in items:
        if len(fp) != 32:
            raise errors.InvalidOperand("fingerprints must be 32 bytes")
        parts.append(fp)
        parts.append(u32(len(data)))
        parts.append(data)
    return b"".join(parts)


_PACKAGE_HEAD = struct.Struct(">32sI")


def _list_view(payload) -> tuple[memoryview, int, int]:
    """A read-only view of a u32-counted list, its count and first offset."""
    view = memoryview(payload).toreadonly()
    if len(view) < _U32.size:
        raise errors.InvalidOperand("truncated payload")
    return view, _U32.unpack_from(view)[0], _U32.size


def decode_package_items(payload: bytes) -> list[tuple[bytes, memoryview]]:
    """(fingerprint, package) pairs; each package is a view of the payload."""
    view, count, pos = _list_view(payload)
    head, size = _PACKAGE_HEAD, len(view)
    items = []
    for _ in range(count):
        if pos + head.size > size:
            raise errors.InvalidOperand("truncated payload")
        fp, n = head.unpack_from(view, pos)
        pos += head.size + n
        if pos > size:
            raise errors.InvalidOperand("truncated payload")
        items.append((fp, view[pos - n:pos]))
    if pos != size:
        raise errors.InvalidOperand("trailing bytes in payload")
    return items


def encode_byte_list(blobs: list[bytes]) -> bytes:
    parts = [u32(len(blobs))]
    for blob in blobs:
        parts.append(u32(len(blob)))
        parts.append(blob)
    return b"".join(parts)


def decode_byte_list(payload: bytes) -> list[memoryview]:
    """The blobs of encode_byte_list, each a view of the payload."""
    view, count, pos = _list_view(payload)
    size = len(view)
    blobs = []
    for _ in range(count):
        if pos + _U32.size > size:
            raise errors.InvalidOperand("truncated payload")
        n = _U32.unpack_from(view, pos)[0]
        pos += _U32.size + n
        if pos > size:
            raise errors.InvalidOperand("truncated payload")
        blobs.append(view[pos - n:pos])
    if pos != size:
        raise errors.InvalidOperand("trailing bytes in payload")
    return blobs


def encode_blob_put(obj_id: str, version: int, blob, expected_prev: int | None = None
                    ) -> bytes:
    """A put request; the blob, which may be any byte buffer, is copied
    once, into the payload."""
    head = bytes([BLOB_PUT]) + prefixed(obj_id.encode("utf-8")) + u32(version)
    if expected_prev is None:
        head += b"\x00"
    else:
        head += bytes([PUT_EXPECTED_PREV]) + u32(expected_prev)
    return b"".join((head, u32(len(blob)), blob))


def encode_blob_get(obj_id: str) -> bytes:
    return bytes([BLOB_GET]) + prefixed(obj_id.encode("utf-8"))


def encode_blob_response(version: int, blob) -> bytes:
    """A get reply; the blob is copied once, into the payload."""
    return b"".join((u32(version), u32(len(blob)), blob))


def decode_blob_response(payload: bytes) -> tuple[int, bytes]:
    r = Reader(payload)
    version, blob = r.u32(), r.bytes_u32()
    r.done()
    return version, blob


def encode_int_list(values: list[int], width: int) -> bytes:
    parts = [u32(len(values))]
    for v in values:
        parts.append(v.to_bytes(width, "big"))
    return b"".join(parts)


def decode_int_list(payload: bytes, width: int) -> list[int]:
    r = Reader(payload)
    values = [int.from_bytes(r.take(width), "big") for _ in range(r.u32())]
    r.done()
    return values


def encode_stats(logical: int, physical: int, stub: int,
                 containers: int, index_entries: int) -> bytes:
    return struct.pack(">QQQQQ", logical, physical, stub, containers, index_entries)


def decode_stats(payload: bytes) -> tuple[int, int, int, int, int]:
    return struct.unpack(">QQQQQ", payload)
