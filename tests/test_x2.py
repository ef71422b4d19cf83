"""Tests for the out-of-band control channel."""

import concurrent.futures
import gc
import io
import logging
import socket
import struct
import threading
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctclink import x2
from ctclink.codec import crc16
from ctclink.multicell import build_cluster_configurations, build_hex_deployment, example_codebook
from ctclink.x2 import (
    ErrorCode,
    MessageType,
    X2Client,
    X2ConnectivityError,
    X2ProtocolError,
    X2Service,
    X2WireError,
    decode_error,
    decode_hello,
    decode_report,
    deserialize_codebook,
    encode_hello,
    encode_message,
    encode_report,
    read_message,
    serialize_codebook,
)

NETWORK_ID = 0x0A00002A


def make_codebook(count=7):
    deployment = build_hex_deployment(count)
    _, book = build_cluster_configurations(deployment)
    return book


def make_service(**kwargs):
    return X2Service(make_codebook(), NETWORK_ID, **kwargs).start()


class _OracleReader:
    """Field-at-a-time reader: one struct per field, bounds checked first."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def take(self, fmt: str):
        s = struct.Struct(fmt)
        if self._pos + s.size > len(self._data):
            raise X2WireError("payload truncated")
        out = s.unpack_from(self._data, self._pos)
        self._pos += s.size
        return out

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise X2WireError("trailing bytes after payload")


def oracle_deserialize_codebook(data: bytes) -> x2.Codebook:
    """Plain-Python decoder the one-pass deserialize_codebook must match."""
    if len(data) < 6:
        raise X2WireError("codebook payload too short")
    body, (checksum,) = data[:-2], struct.unpack("!H", data[-2:])
    if crc16(body) != checksum:
        raise X2WireError("codebook checksum mismatch")
    reader = _OracleReader(body)
    n_entries, n_slots = reader.take("!HH")
    entries = {}
    for _ in range(n_entries):
        slot, cluster_id, count = reader.take("!HHB")
        members = tuple(reader.take("!H")[0] for _ in range(count))
        entries[(slot, cluster_id)] = members
    reader.expect_end()
    return x2.Codebook(entries, n_slots)


def outcome(decode, data):
    """(entries, n_slots) of a decode, or the X2WireError message."""
    try:
        book = decode(data)
    except X2WireError as exc:
        return f"X2WireError: {exc}"
    return book.entries, book.n_slots


def with_crc(body: bytes) -> bytes:
    return body + struct.pack("!H", crc16(body))


u16 = st.integers(min_value=0, max_value=0xFFFF)
codebooks = st.builds(
    x2.Codebook,
    st.dictionaries(st.tuples(u16, u16), st.lists(u16, max_size=255).map(tuple), max_size=12),
    u16,
)


class _SocketStub:
    """Minimal recv() source backed by a byte string."""

    def __init__(self, data: bytes, chunk: int = 0xFFFF):
        self._buf = io.BytesIO(data)
        self._chunk = chunk

    def recv(self, n):
        return self._buf.read(min(n, self._chunk))


class TestWireFormat:
    def test_frame_layout(self):
        frame = encode_message(MessageType.HELLO, b"abc")
        length = struct.unpack("!I", frame[:4])[0]
        assert length == len(frame) - 4
        assert frame[4] == x2.PROTOCOL_VERSION
        assert frame[5] == MessageType.HELLO
        assert frame[6:] == b"abc"

    @given(
        msg_type=st.integers(min_value=0, max_value=255),
        payload=st.binary(max_size=512),
        version=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, msg_type, payload, version):
        frame = encode_message(msg_type, payload, version)
        got = read_message(_SocketStub(frame, chunk=3))
        assert got == (version, msg_type, payload)

    def test_truncated_prefix_raises(self):
        with pytest.raises(X2WireError):
            read_message(_SocketStub(b"\x00\x00"))

    def test_truncated_body_raises(self):
        frame = encode_message(MessageType.HELLO, b"abcdef")
        with pytest.raises(X2WireError):
            read_message(_SocketStub(frame[:-3]))

    def test_oversized_length_rejected(self):
        prefix = struct.pack("!I", x2.MAX_FRAME_BYTES + 1)
        with pytest.raises(X2WireError):
            read_message(_SocketStub(prefix + b"\x00" * 16))

    def test_hello_roundtrip(self):
        payload = encode_hello("ap-west-2", 0xC0A80001)
        assert decode_hello(payload) == ("ap-west-2", 0xC0A80001)

    def test_report_roundtrip_sorts_fields(self):
        payload = encode_report("ap-1", [(3, 5), (1, 2)], [9, 4, 7])
        ap_id, pairs, cells = decode_report(payload)
        assert ap_id == "ap-1"
        assert pairs == [(1, 2), (3, 5)]
        assert cells == [4, 7, 9]

    def test_payload_trailing_bytes_rejected(self):
        payload = encode_hello("ap-1", 1) + b"\x00"
        with pytest.raises(X2WireError):
            decode_hello(payload)

    def test_error_roundtrip(self):
        payload = x2.encode_error(ErrorCode.AUTH, "no entry")
        assert decode_error(payload) == (ErrorCode.AUTH, "no entry")

    @pytest.mark.parametrize(
        "decode, payload",
        [
            (decode_hello, encode_hello("ap-west-2", 0xC0A80001)),
            (decode_report, encode_report("ap-1", [(3, 5), (1, 2)], [9, 4, 7])),
            (decode_error, x2.encode_error(ErrorCode.MALFORMED, "bad framing")),
        ],
    )
    def test_every_truncation_is_a_wire_error(self, decode, payload):
        for cut in range(len(payload)):
            with pytest.raises(X2WireError, match="^payload truncated$"):
                decode(payload[:cut])


class TestCodebookSerialization:
    def test_roundtrip_is_identity(self):
        book = make_codebook(37)
        again = deserialize_codebook(serialize_codebook(book))
        assert again.entries == {k: tuple(sorted(v)) for k, v in book.entries.items()}
        assert again.n_slots == book.n_slots

    def test_serialization_is_canonical(self):
        book = make_codebook()
        shuffled = x2.Codebook(dict(reversed(list(book.entries.items()))), book.n_slots)
        assert serialize_codebook(book) == serialize_codebook(shuffled)

    def test_checksum_trailer(self):
        blob = serialize_codebook(make_codebook())
        body, checksum = blob[:-2], struct.unpack("!H", blob[-2:])[0]
        assert crc16(body) == checksum

    def test_corrupted_byte_detected(self):
        blob = bytearray(serialize_codebook(make_codebook()))
        blob[7] ^= 0x40
        with pytest.raises(X2WireError):
            deserialize_codebook(bytes(blob))

    def test_example_codebook_survives_the_wire(self):
        book = example_codebook()
        again = deserialize_codebook(serialize_codebook(book))
        assert again.members(2, 4) == (3, 4, 6)

    @given(book=codebooks)
    @settings(max_examples=150, deadline=None)
    def test_decoder_matches_oracle(self, book):
        blob = serialize_codebook(book)
        got = deserialize_codebook(blob)
        assert got == oracle_deserialize_codebook(blob)
        assert got.entries == {k: tuple(sorted(v)) for k, v in book.entries.items()}
        assert all(type(m) is int for ms in got.entries.values() for m in ms)

    def test_empty_codebook(self):
        blob = serialize_codebook(x2.Codebook({}, 7))
        assert blob == with_crc(struct.pack("!HH", 0, 7))
        book = deserialize_codebook(blob)
        assert book.entries == {} and book.n_slots == 7

    def test_full_member_count(self):
        book = x2.Codebook({(0xFFFF, 0xFFFF): tuple(range(0xFF00, 0xFFFF))}, 0xFFFF)
        blob = serialize_codebook(book)
        assert deserialize_codebook(blob) == oracle_deserialize_codebook(blob) == book


class TestMalformedCodebook:
    """Structural faults behind a checksum that matches the faulty body."""

    def test_every_truncation_of_the_body(self):
        body = serialize_codebook(example_codebook())[:-2]
        for cut in range(len(body)):
            blob = with_crc(body[:cut])
            with pytest.raises(X2WireError):
                deserialize_codebook(blob)
            assert outcome(deserialize_codebook, blob) == outcome(oracle_deserialize_codebook, blob)

    def test_one_trailing_byte(self):
        blob = with_crc(serialize_codebook(example_codebook())[:-2] + b"\x00")
        with pytest.raises(X2WireError, match="trailing bytes"):
            deserialize_codebook(blob)

    def test_member_count_running_past_the_end(self):
        body = bytearray(serialize_codebook(x2.Codebook({(1, 2): (3, 4)}, 5))[:-2])
        assert body[8] == 2  # header 4 bytes, then slot, cluster, count
        body[8] = 3
        with pytest.raises(X2WireError, match="truncated"):
            deserialize_codebook(with_crc(bytes(body)))

    def test_entry_count_running_past_the_end(self):
        body = bytearray(serialize_codebook(example_codebook())[:-2])
        body[0:2] = struct.pack("!H", struct.unpack("!H", body[0:2])[0] + 1)
        with pytest.raises(X2WireError, match="truncated"):
            deserialize_codebook(with_crc(bytes(body)))

    @given(book=codebooks, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_edited_bodies_match_oracle(self, book, data):
        body = bytearray(serialize_codebook(book)[:-2])
        at = data.draw(st.integers(min_value=0, max_value=len(body)))
        edit = data.draw(st.sampled_from(["cut", "insert", "replace"]))
        chunk = data.draw(st.binary(min_size=1, max_size=8))
        if edit == "cut":
            del body[at:at + len(chunk)]
        elif edit == "insert":
            body[at:at] = chunk
        else:
            body[at:at + len(chunk)] = chunk
        blob = with_crc(bytes(body))
        assert outcome(deserialize_codebook, blob) == outcome(oracle_deserialize_codebook, blob)

    @given(body=st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_random_bodies_match_oracle(self, body):
        blob = with_crc(body)
        assert outcome(deserialize_codebook, blob) == outcome(oracle_deserialize_codebook, blob)


class TestHandshake:
    def test_hello_registers_ap(self):
        with make_service() as service:
            with X2Client(service.address, NETWORK_ID, ap_id="ap-7"):
                pass
            registry = service.registrations()
        assert set(registry) == {"ap-7"}
        assert registry["ap-7"].network_id == NETWORK_ID
        assert registry["ap-7"].timestamp > 0

    def test_client_disables_nagle(self):
        with make_service() as service:
            with X2Client(service.address, NETWORK_ID) as client:
                assert client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

    def test_wrong_network_id_is_auth_error(self):
        with make_service() as service:
            with pytest.raises(X2ProtocolError, match="AUTH"):
                X2Client(service.address, NETWORK_ID + 1).connect()

    def test_refused_handshake_closes_the_socket(self, monkeypatch):
        # __exit__ does not run when __enter__ raises, so connect closes it
        opened = []
        create = socket.create_connection

        def spy(*args, **kwargs):
            opened.append(create(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(socket, "create_connection", spy)
        with make_service() as service:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(X2ProtocolError, match="AUTH"):
                    with X2Client(service.address, NETWORK_ID + 1):
                        pass
                assert len(opened) == 1 and opened[0].fileno() == -1
                opened.clear()
                gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_version_mismatch_is_protocol_error(self):
        with make_service() as service:
            with pytest.raises(X2ProtocolError, match="VERSION"):
                X2Client(service.address, NETWORK_ID, version=9).connect()

    def test_unknown_type_closes_connection(self):
        with make_service() as service:
            with socket.create_connection(service.address, timeout=2.0) as sock:
                sock.sendall(encode_message(200, b""))
                version, msg_type, payload = read_message(sock)
                assert msg_type == MessageType.ERROR
                assert decode_error(payload)[0] == ErrorCode.UNSUPPORTED
                assert sock.recv(1) == b""


class TestCodebookFetch:
    def test_fetch_matches_served_codebook(self):
        book = make_codebook(19)
        with X2Service(book, NETWORK_ID).start() as service:
            fetched = x2.fetch_codebook(service.address, NETWORK_ID)
        assert serialize_codebook(fetched) == serialize_codebook(book)

    def test_unreachable_server_raises_after_retries(self):
        with pytest.raises(X2ConnectivityError):
            x2.fetch_codebook(("127.0.0.1", 1), NETWORK_ID, timeout_s=0.2, retries=2, backoff_s=0.01)

    def test_no_sleep_after_the_last_attempt(self):
        start = time.perf_counter()
        with pytest.raises(X2ConnectivityError):
            x2.fetch_codebook(("127.0.0.1", 1), NETWORK_ID, timeout_s=0.2, retries=1, backoff_s=0.2)
        assert time.perf_counter() - start < 0.1

    def test_ten_concurrent_clients_get_identical_bytes(self):
        with make_service() as service:

            def fetch(i):
                with X2Client(service.address, NETWORK_ID, ap_id=f"ap-{i}") as client:
                    return serialize_codebook(client.fetch_codebook())

            with concurrent.futures.ThreadPoolExecutor(max_workers=10) as pool:
                blobs = list(pool.map(fetch, range(10)))
        assert len(set(blobs)) == 1
        assert blobs[0] == service.codebook_bytes


class TestMalformedTraffic:
    def test_truncated_length_prefix_gets_malformed_error(self):
        with make_service() as service:
            with socket.create_connection(service.address, timeout=2.0) as sock:
                sock.sendall(b"\x00\x00")
                sock.shutdown(socket.SHUT_WR)
                version, msg_type, payload = read_message(sock)
        assert msg_type == MessageType.ERROR
        assert decode_error(payload)[0] == ErrorCode.MALFORMED

    def test_garbled_payload_keeps_connection_open(self):
        with make_service() as service:
            with socket.create_connection(service.address, timeout=2.0) as sock:
                sock.sendall(encode_message(MessageType.HELLO, b"\xff"))
                _, msg_type, payload = read_message(sock)
                assert msg_type == MessageType.ERROR
                assert decode_error(payload)[0] == ErrorCode.MALFORMED
                # Same connection still serves a valid request afterwards.
                sock.sendall(encode_message(MessageType.GET_CODEBOOK, b""))
                _, msg_type, payload = read_message(sock)
                assert msg_type == MessageType.CODEBOOK
                assert payload == service.codebook_bytes

    def test_random_bytes_never_crash_server(self):
        import random

        rng = random.Random(20230817)
        with make_service() as service:
            for _ in range(60):
                with socket.create_connection(service.address, timeout=2.0) as sock:
                    sock.settimeout(2.0)
                    blob = rng.randbytes(rng.randrange(1, 64))
                    try:
                        sock.sendall(blob)
                        sock.shutdown(socket.SHUT_WR)
                        while sock.recv(4096):
                            pass
                    except OSError:
                        pass
            # Server must still be healthy.
            fetched = x2.fetch_codebook(service.address, NETWORK_ID)
            assert serialize_codebook(fetched) == service.codebook_bytes


class TestProximityReports:
    def test_report_is_acked_and_stored(self):
        with make_service() as service:
            with X2Client(service.address, NETWORK_ID, ap_id="ap-3") as client:
                count = client.report_proximity([(1, 0), (4, 0)], [0, 2, 3])
            assert count == 3
            assert service.proximity_map() == {"ap-3": frozenset({0, 2, 3})}
            registration = service.registrations()["ap-3"]
        assert registration.pairs == ((1, 0), (4, 0))

    def test_duplicate_report_is_idempotent_overwrite(self):
        with make_service() as service:
            with X2Client(service.address, NETWORK_ID, ap_id="ap-3") as client:
                client.report_proximity([(1, 0)], [0, 2, 3])
                client.report_proximity([(1, 0)], [0, 2, 3])
                client.report_proximity([(2, 0)], [0])
            assert service.proximity_map() == {"ap-3": frozenset({0})}

    def test_unknown_cell_rejected(self):
        with make_service() as service:
            with X2Client(service.address, NETWORK_ID, ap_id="ap-3") as client:
                with pytest.raises(X2ProtocolError, match="UNKNOWN_CELL"):
                    client.report_proximity([(1, 0)], [999])
            assert service.proximity_map() == {}

    def test_unknown_pair_rejected(self):
        with make_service() as service:
            with X2Client(service.address, NETWORK_ID, ap_id="ap-3") as client:
                with pytest.raises(X2ProtocolError, match="UNKNOWN_CELL"):
                    client.report_proximity([(1, 555)], [0])

    def test_report_without_hello_is_auth_error(self):
        with make_service() as service:
            with socket.create_connection(service.address, timeout=2.0) as sock:
                sock.sendall(
                    encode_message(
                        MessageType.REPORT_PROXIMITY,
                        encode_report("ap-9", [(1, 0)], [0]),
                    )
                )
                _, msg_type, payload = read_message(sock)
        assert msg_type == MessageType.ERROR
        assert decode_error(payload)[0] == ErrorCode.AUTH

    def test_reports_from_many_threads_all_land(self):
        with make_service() as service:

            def report(i):
                with X2Client(service.address, NETWORK_ID, ap_id=f"ap-{i}") as client:
                    client.report_proximity([(1, 0)], [0])

            threads = [threading.Thread(target=report, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(service.proximity_map()) == 8


class TestServiceLifecycle:
    def test_stop_closes_idle_connections(self):
        before = set(threading.enumerate())
        service = make_service()
        started = set(threading.enumerate())
        clients = [X2Client(service.address, NETWORK_ID, ap_id=f"ap-{i}").connect() for i in range(2)]
        try:
            assert len(started - before) == 1  # the service thread
            assert set(threading.enumerate()) == started  # and no more per connection
            service.stop()
            assert not set(threading.enumerate()) - before
            for client in clients:  # the server end is gone
                with pytest.raises(X2ConnectivityError):
                    client.fetch_codebook()
        finally:
            for client in clients:
                client.close()
            service.stop()

    def test_stop_is_idempotent_without_clients(self):
        before = set(threading.enumerate())
        service = make_service()
        service.stop()
        service.stop()
        assert not set(threading.enumerate()) - before

    def test_start_on_a_running_service_keeps_it(self):
        before = set(threading.enumerate())
        service = make_service()
        address = service.address
        with service.start() as again:
            assert again is service and again.address == address
            assert len(set(threading.enumerate()) - before) == 1
        assert not set(threading.enumerate()) - before


def drain(sock: socket.socket) -> bytes:
    """Every byte the peer sends before closing its end."""
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def frames_of(blob: bytes) -> list[tuple[int, int, bytes]]:
    stub = _SocketStub(blob)
    out = []
    while stub._buf.tell() < len(blob):
        out.append(read_message(stub))
    return out


def small_send_buffers(monkeypatch, nbytes: int = 4096) -> None:
    """Give each connection the service accepts a small kernel send buffer,
    so that most of a large reply waits in the service's own buffer."""
    init = x2._Connection.__init__

    def init_small(self, sock, now):
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, nbytes)
        init(self, sock, now)

    monkeypatch.setattr(x2._Connection, "__init__", init_small)


def pipelined_codebook_requests(service: X2Service, count: int) -> socket.socket:
    """A connection with a small receive buffer that has sent count
    GET_CODEBOOK requests at once."""
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.settimeout(2.0)
    sock.connect(service.address)
    sock.sendall(encode_message(MessageType.GET_CODEBOOK) * count)
    return sock


class TestBoundedService:
    """Idle deadline and connection cap, with the constants made small."""

    def test_idle_client_is_closed(self, monkeypatch):
        monkeypatch.setattr(x2, "IDLE_TIMEOUT_S", 0.2)
        before = set(threading.enumerate())
        with make_service() as service:
            started = set(threading.enumerate())
            with socket.create_connection(service.address, timeout=2.0) as sock:
                sock.sendall(encode_message(MessageType.HELLO, encode_hello("ap-1", NETWORK_ID)))
                assert read_message(sock)[1] == MessageType.HELLO_ACK
                t0 = time.monotonic()
                assert sock.recv(1) == b""
                assert time.monotonic() - t0 >= 0.15
            assert set(threading.enumerate()) == started
            # the service still serves after expiring a connection
            assert serialize_codebook(x2.fetch_codebook(service.address, NETWORK_ID)) == service.codebook_bytes
        assert not set(threading.enumerate()) - before

    def test_stalled_length_prefix_is_closed(self, monkeypatch):
        monkeypatch.setattr(x2, "IDLE_TIMEOUT_S", 0.2)
        before = set(threading.enumerate())
        with make_service() as service:
            started = set(threading.enumerate())
            with socket.create_connection(service.address, timeout=2.0) as sock:
                # a 1 MiB frame announced, two bytes of it sent, then nothing
                sock.sendall(struct.pack("!I", x2.MAX_FRAME_BYTES) + b"\x01\x03")
                t0 = time.monotonic()
                assert sock.recv(1) == b""
                assert time.monotonic() - t0 >= 0.15
            assert set(threading.enumerate()) == started
        assert not set(threading.enumerate()) - before

    def test_slow_reader_of_large_replies_is_not_idle(self, monkeypatch):
        # the reader takes its replies over several deadlines and sends
        # nothing after its requests; the bytes it takes keep it open
        monkeypatch.setattr(x2, "IDLE_TIMEOUT_S", 0.3)
        monkeypatch.setattr(x2, "_OUT_HIGH_WATER", 1024)
        small_send_buffers(monkeypatch)
        before = set(threading.enumerate())
        with X2Service(make_codebook(100), NETWORK_ID).start() as service:
            replies = encode_message(MessageType.CODEBOOK, service.codebook_bytes) * 40
            with pipelined_codebook_requests(service, 40) as sock:
                t0 = time.monotonic()
                got = bytearray()
                while len(got) < len(replies) and (chunk := sock.recv(2048)):
                    got += chunk
                    time.sleep(0.02)
                assert time.monotonic() - t0 >= 2 * x2.IDLE_TIMEOUT_S
            assert got == replies
        assert not set(threading.enumerate()) - before

    def test_peer_that_never_reads_still_times_out(self, monkeypatch):
        monkeypatch.setattr(x2, "IDLE_TIMEOUT_S", 0.2)
        monkeypatch.setattr(x2, "_OUT_HIGH_WATER", 1024)
        small_send_buffers(monkeypatch)
        before = set(threading.enumerate())
        with X2Service(make_codebook(100), NETWORK_ID).start() as service:
            replies = encode_message(MessageType.CODEBOOK, service.codebook_bytes) * 40
            with pipelined_codebook_requests(service, 40) as sock:
                time.sleep(3 * x2.IDLE_TIMEOUT_S)
                got = drain(sock)  # what the kernel buffers held, then the close
            assert 0 < len(got) < len(replies) and replies.startswith(got)
        assert not set(threading.enumerate()) - before

    def test_reader_slower_than_its_socket_wakeups_is_not_idle(self, monkeypatch):
        # the reader frees too little of the 64 KiB send buffer per deadline
        # for its socket to become writable, so the service sends it nothing
        # for longer than a deadline; the kernel's unsent count still drops.
        # (A 4 KiB buffer becomes writable about as soon as that count drops.)
        monkeypatch.setattr(x2, "IDLE_TIMEOUT_S", 0.5)
        monkeypatch.setattr(x2, "_OUT_HIGH_WATER", 1024)
        small_send_buffers(monkeypatch, 1 << 16)
        before = set(threading.enumerate())
        with X2Service(make_codebook(100), NETWORK_ID).start() as service:
            replies = encode_message(MessageType.CODEBOOK, service.codebook_bytes) * 80
            with pipelined_codebook_requests(service, 80) as sock:
                t0 = time.monotonic()
                got = bytearray()
                while time.monotonic() - t0 < 3 * x2.IDLE_TIMEOUT_S:
                    got += sock.recv(512)
                    time.sleep(0.02)
                # still open: the rest arrives in full, not cut off by a close
                while len(got) < len(replies) and (chunk := sock.recv(65536)):
                    got += chunk
            assert got == replies
        assert not set(threading.enumerate()) - before

    def test_client_over_the_cap_is_refused(self, monkeypatch):
        monkeypatch.setattr(x2, "MAX_CONNECTIONS", 2)
        before = set(threading.enumerate())
        with make_service() as service:
            started = set(threading.enumerate())
            holders = [socket.create_connection(service.address, timeout=2.0) for _ in range(2)]
            try:
                with pytest.raises(X2ProtocolError, match="BUSY: too many connections"):
                    X2Client(service.address, NETWORK_ID, ap_id="ap-late").connect()
                # closing one holder frees its slot: its end-of-stream reply
                # and close come after the service dropped the connection
                holders[0].shutdown(socket.SHUT_WR)
                _, msg_type, _ = frames_of(drain(holders[0]))[0]
                assert msg_type == MessageType.ERROR
                with X2Client(service.address, NETWORK_ID, ap_id="ap-late") as client:
                    assert client.report_proximity([(1, 0)], [0]) == 1
                assert set(threading.enumerate()) == started
            finally:
                for sock in holders:
                    sock.close()
        assert not set(threading.enumerate()) - before


class TestDispatchLogging:
    REQUEST = encode_message(MessageType.HELLO, encode_hello("ap-1", NETWORK_ID)) + encode_message(
        MessageType.REPORT_PROXIMITY, encode_report("ap-1", [(1, 0)], [0])
    )

    def exchange(self) -> bytes:
        with make_service() as service:
            with socket.create_connection(service.address, timeout=2.0) as sock:
                sock.sendall(self.REQUEST)
                return drain(sock)

    def test_internal_failure_is_logged_with_its_traceback(self, monkeypatch, caplog):
        def broken(*args):
            raise RuntimeError("store exploded")

        monkeypatch.setattr(X2Service, "_store_report", broken)
        with caplog.at_level(logging.ERROR, logger="ctclink.x2"):
            logged = self.exchange()
        failures = [r for r in caplog.records if "internal dispatch failure" in r.getMessage()]
        assert len(failures) == 1
        assert failures[0].name == "ctclink.x2"
        assert failures[0].exc_info[0] is RuntimeError
        assert "store exploded" in caplog.text
        replies = frames_of(logged)
        assert [t for _, t, _ in replies] == [MessageType.HELLO_ACK, MessageType.ERROR]
        assert decode_error(replies[1][2]) == (ErrorCode.MALFORMED, "internal dispatch failure")

        caplog.clear()
        logging.disable(logging.CRITICAL)
        try:
            silent = self.exchange()
        finally:
            logging.disable(logging.NOTSET)
        assert not caplog.records
        assert silent == logged


HELLO_AP1 = encode_message(MessageType.HELLO, encode_hello("ap-1", NETWORK_ID))
KEEP_OPEN_REQUESTS = [
    HELLO_AP1,
    encode_message(MessageType.HELLO, encode_hello("ap-2", NETWORK_ID + 1)),  # AUTH
    encode_message(MessageType.HELLO, b"\xff"),  # garbled: MALFORMED
    encode_message(MessageType.GET_CODEBOOK),
    encode_message(MessageType.REPORT_PROXIMITY, encode_report("ap-1", [(1, 0)], [0])),
    encode_message(MessageType.REPORT_PROXIMITY, encode_report("ap-1", [(1, 0)], [999])),
]


class TestServiceLoop:
    @given(
        frames=st.lists(st.sampled_from(KEEP_OPEN_REQUESTS), min_size=1, max_size=8),
        closing=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_and_batched_frames_get_the_same_replies(self, frames, closing, data):
        if closing:  # an unknown type is answered, then the connection closes
            frames = frames + [encode_message(200)]
        blob = b"".join(frames)
        cuts = sorted(data.draw(st.lists(st.integers(0, len(blob)), max_size=6)))
        with make_service() as service:
            with socket.create_connection(service.address, timeout=2.0) as sock:
                expected = []
                for frame in frames:
                    sock.sendall(frame)
                    expected.append(read_message(sock))
            with socket.create_connection(service.address, timeout=2.0) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for start, end in zip([0] + cuts, cuts + [len(blob)]):
                    if end > start:
                        sock.sendall(blob[start:end])
                got = [read_message(sock) for _ in frames]
                if closing:
                    assert sock.recv(1) == b""
        assert got == expected

    def test_pipelined_replies_past_the_output_bound_all_arrive(self, monkeypatch):
        # with a one-byte bound every reply fills the output buffer, and
        # with a small receive window the sends come back partial
        monkeypatch.setattr(x2, "_OUT_HIGH_WATER", 1)
        book = make_codebook(100)
        with X2Service(book, NETWORK_ID).start() as service:
            with socket.socket() as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.settimeout(2.0)
                sock.connect(service.address)
                # more reply bytes than a send buffer holds (4 MiB by default)
                sock.sendall(encode_message(MessageType.GET_CODEBOOK) * 2500)
                for _ in range(2500):
                    _, msg_type, payload = read_message(sock)
                    assert msg_type == MessageType.CODEBOOK
                    assert payload == service.codebook_bytes

    def test_client_that_never_reads_does_not_delay_another(self):
        before = set(threading.enumerate())
        with X2Service(make_codebook(37), NETWORK_ID).start() as service:
            hog = socket.socket()
            hog.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            hog.connect(service.address)
            try:
                hog.setblocking(False)
                burst = encode_message(MessageType.GET_CODEBOOK) * 1000
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    try:
                        hog.send(burst)
                    except BlockingIOError:
                        break  # the service stopped reading from it
                else:
                    pytest.fail("the service kept reading from a client that never reads")
                t0 = time.monotonic()
                with X2Client(service.address, NETWORK_ID, ap_id="ap-2") as client:
                    book = client.fetch_codebook()
                    assert client.report_proximity([(1, 0)], [0]) == 1
                assert time.monotonic() - t0 < 1.0
                assert serialize_codebook(book) == service.codebook_bytes
            finally:
                hog.close()
        assert not set(threading.enumerate()) - before
