"""One request path: both transports answer every request through wire.respond.

The same bad requests are sent in-process (LocalBackend) and over TCP
(FrameServer + Connection) and must raise the same typed error; a fault
inside a service reaches the peer as an incident id only, with the detail
logged on the server; and the client refuses a reply of the wrong type.
"""

import contextlib
import logging
import os
import random
import re
import socket
import struct
import threading
import time

import pytest

from reed import wire
from reed.client import Connection, Recipe, StoreSession
from reed.errors import (IntegrityViolation, InvalidOperand, NotFound, RateLimited,
                         StorageUnavailable, TransportError)
from reed.keygen import DEFAULT_MODULUS_BITS, KeyManagerService, KeySession
from reed.server import FrameServer, StorageService


@pytest.fixture(scope="module")
def services(tmp_path_factory, manager_keypair):
    root = str(tmp_path_factory.mktemp("request-path"))
    store = StorageService(os.path.join(root, "data"), os.path.join(root, "keys"))
    # a cap of 4 and a bucket of 2 tokens that never refills: 5 values are
    # over the cap, 3 are under it but over the rate limit
    manager = KeyManagerService(manager_keypair, rate_capacity=2, rate_refill=0.0,
                                batch_cap=4)
    servers = {"store": FrameServer(store).start(), "manager": FrameServer(manager).start()}
    conns = {name: Connection(*server.address) for name, server in servers.items()}
    yield {"store": store, "manager": manager}, conns
    for name in servers:
        conns[name].close()
        servers[name].stop()
    store.close()


def keygen_values(count: int) -> bytes:
    return wire.encode_int_list([2] * count, DEFAULT_MODULUS_BITS // 8)


CASES = {
    "store-unknown-type": ("store", 0x55, b"", InvalidOperand),
    "manager-unknown-type": ("manager", 0x55, b"", InvalidOperand),
    "unknown-blob-op": ("store", wire.MSG_RECIPE, b"\x09" + wire.prefixed(b"id"),
                        InvalidOperand),
    "truncated-payload": ("store", wire.MSG_GET_PACKAGES, b"\xff\xff", InvalidOperand),
    "non-utf8-id": ("store", wire.MSG_RECIPE,
                    bytes([wire.BLOB_GET]) + wire.prefixed(b"\xff\xfe"), InvalidOperand),
    # the longest id whose hex record name plus ".tmp" fits NAME_MAX, and one byte more
    "id-of-125-bytes": ("store", wire.MSG_USER_KEY,
                        wire.encode_blob_put("u" * 125, 0, b"pem"), None),
    "id-of-126-bytes": ("store", wire.MSG_USER_KEY,
                        wire.encode_blob_put("u" * 126, 0, b"pem"), InvalidOperand),
    "keygen-over-cap": ("manager", wire.MSG_KEYGEN, keygen_values(5), InvalidOperand),
    "rate-limited": ("manager", wire.MSG_KEYGEN, keygen_values(3), RateLimited),
}


@pytest.mark.parametrize("case", CASES)
def test_both_transports_raise_the_same_error(services, case):
    """Each case raises its error over both transports, or, with None, succeeds."""
    target, msg_type, payload, expected = CASES[case]
    objects, conns = services
    for transport, backend in [("local", wire.LocalBackend(objects[target])),
                               ("tcp", conns[target])]:
        if expected is None:
            assert wire.call(backend, msg_type, payload) == b"", transport
            continue
        with pytest.raises(expected) as info:
            wire.call(backend, msg_type, payload)
        assert type(info.value) is expected, transport


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_internal_error_reaches_the_peer_as_an_incident_id(services, transport,
                                                           monkeypatch, caplog):
    objects, conns = services
    store = objects["store"]

    def broken(fps):
        raise RuntimeError("/secret/path")

    monkeypatch.setattr(store, "get_packages", broken)
    backend = wire.LocalBackend(store) if transport == "local" else conns["store"]
    peer = "local" if transport == "local" else "127.0.0.1"
    with caplog.at_level(logging.ERROR, logger="reed"):
        with pytest.raises(StorageUnavailable) as info:
            wire.call(backend, wire.MSG_GET_PACKAGES, wire.encode_fingerprint_list([]))
    message = str(info.value)
    assert "/secret/path" not in message
    incident = re.fullmatch(r"internal error ([0-9a-f]+)", message).group(1)
    records = [r for r in caplog.records if r.name == "reed"]
    assert len(records) == 1
    record = records[0]
    assert record.levelno == logging.ERROR
    logged = record.getMessage()
    assert incident in logged and "0x03" in logged and peer in logged
    assert record.exc_info[0] is RuntimeError


def test_key_session_refuses_a_reply_of_the_wrong_type(manager_keypair):
    local = wire.LocalBackend(KeyManagerService(manager_keypair))

    class WrongType:
        def request(self, msg_type, payload):
            resp_type, body = local.request(msg_type, payload)
            if msg_type == wire.MSG_KEYGEN:
                return wire.MSG_STATS | wire.RESP_FLAG, body
            return resp_type, body

    with pytest.raises(TransportError):
        KeySession(WrongType()).keys_for_fingerprints([os.urandom(32)])


def test_text_fields_reject_non_utf8():
    with pytest.raises(InvalidOperand):
        wire.Reader(wire.prefixed(b"\xff\xfe")).text()
    assert wire.Reader(wire.prefixed("ü".encode())).text() == "ü"
    recipe = Recipe(file_id="00" * 32, pathname="x", size=0, scheme=0,
                    keying="chunk", state_version=0).encode()
    bad = recipe.replace(wire.prefixed(b"x"), wire.prefixed(b"\xff"))
    with pytest.raises(IntegrityViolation, match="not valid UTF-8"):
        Recipe.decode(bad)


def test_oversized_frame_is_answered_then_the_connection_closes(manager_keypair):
    server = FrameServer(KeyManagerService(manager_keypair)).start()
    try:
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(struct.pack(">IB", wire.MAX_FRAME + 1, wire.MSG_STATS))
            msg_type, payload = wire.read_frame(sock)
            with pytest.raises(InvalidOperand, match=f"limit of {wire.MAX_FRAME} bytes"):
                wire.raise_for_frame(msg_type, payload)
            assert sock.recv(1) == b""  # the body was never read, so nothing follows
        with Connection(*server.address) as conn:  # and the server still serves
            assert KeySession(conn).public_key.n == manager_keypair.n
    finally:
        server.stop()


@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_a_request_over_the_frame_limit_is_refused_before_it_is_sent(services, transport,
                                                                      monkeypatch):
    objects, conns = services
    backend = wire.LocalBackend(objects["store"]) if transport == "local" else conns["store"]
    session = StoreSession(backend)
    monkeypatch.setattr(wire, "MAX_FRAME", 1 << 20)  # a cheap ceiling, same check
    with pytest.raises(InvalidOperand, match=r"^request of \d+ bytes exceeds the frame "
                                             r"limit of 1048576 bytes$"):
        session.put_stub("oversized", 0, bytes(2 << 20))
    with pytest.raises(NotFound):
        session.get_stub("oversized")
    assert session.stats().logical_bytes >= 0  # the connection is still in step


class SlowFirstReply:
    """Answers its first request after the client has given up on it."""

    def __init__(self):
        self.calls = 0

    def handle_frame(self, msg_type, payload, client_id):
        self.calls += 1
        if self.calls == 1:
            time.sleep(0.4)
            return b"first"
        return b"second"


def test_a_timed_out_exchange_closes_the_connection():
    server = FrameServer(SlowFirstReply()).start()
    conn = Connection(*server.address)
    conn._sock.settimeout(0.1)
    try:
        with pytest.raises(TransportError):
            conn.request(wire.MSG_STATS, b"")
        time.sleep(0.5)  # the late reply to the first request has arrived
        with pytest.raises(TransportError):
            conn.request(wire.MSG_STATS, b"")
    finally:
        conn.close()
        server.stop()


def test_an_oversized_reply_closes_the_connection():
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        # an oversized reply header, then a good reply to the next request
        peer, _ = listener.accept()
        with peer, contextlib.suppress(ConnectionError):
            wire.read_frame(peer)
            peer.sendall(struct.pack(">IB", wire.MAX_FRAME + 1,
                                     wire.MSG_STATS | wire.RESP_FLAG))
            wire.read_frame(peer)
            wire.write_frame(peer, wire.MSG_STATS | wire.RESP_FLAG, b"second")

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    conn = Connection(*listener.getsockname())
    try:
        with pytest.raises(TransportError, match="exceeds the limit"):
            conn.request(wire.MSG_STATS, b"")
        with pytest.raises(TransportError):
            conn.request(wire.MSG_STATS, b"")
    finally:
        conn.close()
        thread.join(timeout=5)
        listener.close()


@pytest.mark.parametrize("corrupt", [
    lambda blob: wire.u32(2) + blob[4:],  # an unsupported format
    lambda blob: blob.replace(wire.u64(3), wire.u64(4), 1),  # lengths sum to 3, not 4
])
def test_bad_recipe_is_an_integrity_violation(corrupt):
    recipe = Recipe(file_id="00" * 32, pathname="x", size=3, scheme=0, keying="chunk",
                    state_version=0, entries=[(b"\x01" * 32, 3, 0)]).encode()
    assert Recipe.decode(recipe).size == 3
    with pytest.raises(IntegrityViolation):
        Recipe.decode(corrupt(recipe))


def test_recipe_entries_keep_their_layout():
    rng = random.Random(12)
    entries = [(rng.randbytes(32), rng.randint(1, 1 << 20), i // 7) for i in range(1000)]
    recipe = Recipe(file_id="ab" * 32, pathname="dir/f", size=sum(e[1] for e in entries),
                    scheme=1, keying="similarity", state_version=3, entries=entries)
    blob = recipe.encode()
    # each entry is fingerprint || u32 length || u32 segment index, in order
    region = b"".join(fp + wire.u32(length) + wire.u32(seg) for fp, length, seg in entries)
    assert blob.endswith(region)
    assert Recipe.decode(bytearray(blob)) == recipe
    for cut in (1, 40):  # a torn entry, and one entry fewer than the count
        with pytest.raises(IntegrityViolation, match="truncated"):
            Recipe.decode(blob[:-cut])


@pytest.mark.parametrize("size", [0, 1, (1 << 20) + 3], ids=["empty", "one-byte", "over-1MiB"])
@pytest.mark.parametrize("transport", ["local", "tcp"])
def test_blob_put_and_get_round_trip_over_both_transports(services, transport, size):
    """A get returns the version and bytes put, and the record on disk is
    exactly u32 version || blob, for a put with and without expected_prev."""
    objects, conns = services
    store = objects["store"]
    backend = wire.LocalBackend(store) if transport == "local" else conns["store"]
    obj_id = f"parity-{transport}-{size}"
    record = os.path.join(store.data_root, "blobs", "stub", obj_id.encode().hex())
    rng = random.Random(size)
    for version, expected_prev in [(3, None), (4, 3)]:
        blob = rng.randbytes(size)
        payload = wire.encode_blob_put(obj_id, version, blob, expected_prev)
        assert wire.call(backend, wire.MSG_STUB_FILE, payload) == b""
        reply = wire.call(backend, wire.MSG_STUB_FILE, wire.encode_blob_get(obj_id))
        got_version, got = wire.decode_blob_response(reply)
        assert (got_version, got) == (version, blob)
        assert type(got) is bytes
        with open(record, "rb") as fh:
            assert fh.read() == struct.pack(">I", version) + blob


def test_blob_frames_keep_their_layout():
    blob = bytes(range(7))
    assert wire.encode_blob_put("id", 5, blob) == (
        b"\x00" + b"\x00\x00\x00\x02id" + b"\x00\x00\x00\x05" + b"\x00"
        + b"\x00\x00\x00\x07" + blob)
    assert wire.encode_blob_put("id", 5, memoryview(blob), expected_prev=4) == (
        b"\x00" + b"\x00\x00\x00\x02id" + b"\x00\x00\x00\x05" + b"\x01"
        + b"\x00\x00\x00\x04" + b"\x00\x00\x00\x07" + blob)
    assert wire.encode_blob_get("id") == b"\x01" + b"\x00\x00\x00\x02id"
    reply = wire.encode_blob_response(9, blob)
    assert reply == b"\x00\x00\x00\x09" + b"\x00\x00\x00\x07" + blob
    assert wire.decode_blob_response(bytearray(reply)) == (9, blob)
    with pytest.raises(InvalidOperand):
        wire.decode_blob_response(reply[:-1])
