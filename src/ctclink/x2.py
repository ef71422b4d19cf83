"""Out-of-band control channel between WiFi APs and the LTE-U management unit.

A WiFi node that decoded the network ID over the air connects back to the
management service over the wired network, fetches the cluster codebook it
needs to translate (slot, cluster) observations into cell IDs, and can
report its proximity estimate for inspection.

Wire format: every message is a 4-byte big-endian length prefix followed
by a version byte, a type byte, and the payload.  Malformed payloads get
an ERROR reply and the connection stays open; protocol violations (bad
version, unknown type, oversized frame, truncated framing) get a
best-effort ERROR and the connection is closed.  The codebook payload is
canonical — entries sorted row-major (cluster, slot), member IDs sorted,
with a trailing CRC-16 — so both ends can compare checksums byte for byte.
A codebook whose CRC matches but whose structure does not (truncated
entries, a member count running past the end, trailing bytes) raises
X2WireError like any other malformed payload.

The service runs one thread, a selectors loop that serves every
connection.  It closes a connection that has neither sent nor taken a
byte for IDLE_TIMEOUT_S, a stalled partial frame included (bytes that leave
its kernel send queue count as taken while its output waits), and answers
a connection beyond MAX_CONNECTIONS with a BUSY error, then closes it.
"""

from __future__ import annotations

import enum
import fcntl
import logging
import selectors
import socket
import struct
import termios
import threading
import time
from dataclasses import dataclass, field

from .codec import crc16
from .multicell import Codebook

logger = logging.getLogger(__name__)

PROTOCOL_VERSION = 1
MAX_FRAME_BYTES = 1 << 20
# the service closes a connection that neither sent it nor took from it
# a byte for this long, mid-frame or not, and refuses connections beyond
# this many
IDLE_TIMEOUT_S = 60.0
MAX_CONNECTIONS = 128
# how long stop() waits for the service thread
_STOP_TIMEOUT_S = 2.0
_RECV_BYTES = 1 << 16
# replies queued past this wait until the peer reads
_OUT_HIGH_WATER = 1 << 16
_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_PREFIX = _U32
_U16_PAIR = struct.Struct("!HH")
# codebook entry: slot, cluster ID, member count; then count u16 members
_ENTRY_HEAD = struct.Struct("!HHB")
_MEMBERS = tuple(struct.Struct(f"!{n}H") for n in range(256))


class MessageType(enum.IntEnum):
    HELLO = 1
    HELLO_ACK = 2
    GET_CODEBOOK = 3
    CODEBOOK = 4
    REPORT_PROXIMITY = 5
    REPORT_ACK = 6
    ERROR = 7


class ErrorCode(enum.IntEnum):
    MALFORMED = 1
    VERSION = 2
    AUTH = 3
    UNKNOWN_CELL = 4
    UNSUPPORTED = 5
    BUSY = 6


class X2Error(Exception):
    """Base class for control-channel failures."""


class X2WireError(X2Error):
    """Framing problem: truncation, oversize, or a garbled payload."""


class X2ProtocolError(X2Error):
    """The peer speaks a different protocol version or rejected us."""


class X2ConnectivityError(X2Error):
    """Server unreachable within the configured retry budget."""


@dataclass(frozen=True)
class ApRegistration:
    """One WiFi AP known to the management unit."""

    ap_id: str
    network_id: int
    pairs: tuple[tuple[int, int], ...]
    timestamp: float


# ---------------------------------------------------------------------------
# Wire encoding.
# ---------------------------------------------------------------------------

def encode_message(msg_type: int, payload: bytes = b"", version: int = PROTOCOL_VERSION) -> bytes:
    body = struct.pack("!BB", version, msg_type) + payload
    if len(body) > MAX_FRAME_BYTES:
        raise X2WireError("message exceeds the frame limit")
    return _PREFIX.pack(len(body)) + body


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise X2WireError(f"connection closed {remaining} bytes early")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_message(sock: socket.socket) -> tuple[int, int, bytes]:
    """(version, type, payload) of the next frame; X2WireError on bad framing."""
    prefix = _recv_exact(sock, _PREFIX.size)
    (length,) = _PREFIX.unpack(prefix)
    if not 2 <= length <= MAX_FRAME_BYTES:
        raise X2WireError(f"frame length {length} outside [2, {MAX_FRAME_BYTES}]")
    body = _recv_exact(sock, length)
    return body[0], body[1], body[2:]


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise X2WireError("string field too long")
    return struct.pack("!H", len(raw)) + raw


class _Reader:
    """Sequential struct reader that turns short reads into X2WireError."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def take(self, fields: struct.Struct) -> tuple:
        if self._pos + fields.size > len(self._data):
            raise X2WireError("payload truncated")
        out = fields.unpack_from(self._data, self._pos)
        self._pos += fields.size
        return out

    def take_str(self) -> str:
        (n,) = self.take(_U16)
        if self._pos + n > len(self._data):
            raise X2WireError("payload truncated")
        raw = self._data[self._pos:self._pos + n]
        self._pos += n
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise X2WireError("string field is not valid UTF-8") from exc

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise X2WireError("trailing bytes after payload")


def encode_hello(ap_id: str, network_id: int) -> bytes:
    return _pack_str(ap_id) + struct.pack("!I", network_id)


def decode_hello(payload: bytes) -> tuple[str, int]:
    reader = _Reader(payload)
    ap_id = reader.take_str()
    (network_id,) = reader.take(_U32)
    reader.expect_end()
    return ap_id, network_id


def encode_report(ap_id: str, pairs, cells) -> bytes:
    pairs = sorted(pairs)
    cells = sorted(cells)
    out = [_pack_str(ap_id), struct.pack("!H", len(pairs))]
    out += [struct.pack("!HH", slot, cluster) for slot, cluster in pairs]
    out.append(struct.pack("!H", len(cells)))
    out += [struct.pack("!H", cell) for cell in cells]
    return b"".join(out)


def decode_report(payload: bytes) -> tuple[str, list[tuple[int, int]], list[int]]:
    reader = _Reader(payload)
    ap_id = reader.take_str()
    (n_pairs,) = reader.take(_U16)
    pairs = [reader.take(_U16_PAIR) for _ in range(n_pairs)]
    (n_cells,) = reader.take(_U16)
    cells = [reader.take(_U16)[0] for _ in range(n_cells)]
    reader.expect_end()
    return ap_id, pairs, cells


def encode_error(code: int, detail: str) -> bytes:
    return struct.pack("!B", code) + _pack_str(detail)


def decode_error(payload: bytes) -> tuple[int, str]:
    reader = _Reader(payload)
    (code,) = reader.take(_U8)
    detail = reader.take_str()
    reader.expect_end()
    return code, detail


def serialize_codebook(book: Codebook) -> bytes:
    """Canonical bytes: row-major (cluster, slot) entries plus a CRC-16."""
    entries = sorted(book.entries.items(), key=lambda kv: (kv[0][1], kv[0][0]))
    out = [_U16_PAIR.pack(len(entries), book.n_slots)]
    for (slot, cluster_id), members in entries:
        out.append(_ENTRY_HEAD.pack(slot, cluster_id, len(members)))
        out.append(_MEMBERS[len(members)].pack(*sorted(members)))
    body = b"".join(out)
    return body + struct.pack("!H", crc16(body))


def deserialize_codebook(data: bytes) -> Codebook:
    """Inverse of serialize_codebook; X2WireError for any malformed payload.

    One pass over the body: each entry is one head unpack and one unpack
    of all its members, and a short body surfaces as struct.error.
    """
    if len(data) < 6:
        raise X2WireError("codebook payload too short")
    body, (checksum,) = data[:-2], struct.unpack("!H", data[-2:])
    if crc16(body) != checksum:
        raise X2WireError("codebook checksum mismatch")
    try:
        n_entries, n_slots = _U16_PAIR.unpack_from(body)
        pos = _U16_PAIR.size
        entries = {}
        for _ in range(n_entries):
            slot, cluster_id, count = _ENTRY_HEAD.unpack_from(body, pos)
            members = _MEMBERS[count]
            entries[(slot, cluster_id)] = members.unpack_from(body, pos + _ENTRY_HEAD.size)
            pos += _ENTRY_HEAD.size + members.size
    except struct.error:
        raise X2WireError("payload truncated") from None
    if pos != len(body):
        raise X2WireError("trailing bytes after payload")
    return Codebook(entries, n_slots)


# ---------------------------------------------------------------------------
# Server.
# ---------------------------------------------------------------------------

class _CloseConnection(Exception):
    """Raised by the dispatcher with (code, detail) after a protocol
    violation: the connection gets that error, then closes."""


def _error_frame(code: int, detail: str) -> bytes:
    return encode_message(MessageType.ERROR, encode_error(code, detail))


_BAD_FRAMING = _error_frame(ErrorCode.MALFORMED, "bad framing")
_INTERNAL_FAILURE = _error_frame(ErrorCode.MALFORMED, "internal dispatch failure")
_TOO_MANY = _error_frame(ErrorCode.BUSY, "too many connections")


class _Connection:
    """One accepted socket: unparsed input, unsent output, handshake state."""

    __slots__ = ("sock", "inbuf", "outbuf", "registered_ap", "closing", "last_io", "unsent",
                 "events")

    def __init__(self, sock: socket.socket, now: float) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.registered_ap: str | None = None
        self.closing = False  # close once outbuf is sent
        self.last_io = now  # when bytes last moved either way, for the idle deadline
        self.unsent: int | None = None  # the kernel's unsent bytes at last_io, if output waits
        self.events = selectors.EVENT_READ


def _unsent_bytes(sock: socket.socket) -> int | None:
    """Bytes the kernel holds unsent on sock (SIOCOUTQ), or None if it cannot tell."""
    try:
        return struct.unpack("i", fcntl.ioctl(sock, termios.TIOCOUTQ, bytes(4)))[0]
    except OSError:
        return None


class _Server:
    """Listener, connections and the one thread whose selectors loop serves them.

    The loop owns every socket: it accepts, reads, dispatches each complete
    frame in arrival order and sends the replies without blocking.  While a
    connection has output pending it is neither read from nor dispatched
    further, so a peer that never reads costs one bounded buffer and stalls
    no one else.
    """

    def __init__(self, service: "X2Service", host: str, port: int) -> None:
        self.service = service
        self.listener = socket.create_server((host, port))
        self.address = self.listener.getsockname()[:2]
        self.listener.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.listener, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._conns: dict[socket.socket, _Connection] = {}
        self._expiry: float | None = None  # no connection is idle-due before this
        self.thread = threading.Thread(target=self._run, name="x2-service", daemon=True)
        self.thread.start()

    def stop(self, timeout_s: float) -> None:
        """Wake the loop, which closes every socket, and join its thread."""
        try:
            self._wake_w.send(b"\0")
        except OSError:
            pass  # the loop has already exited
        self.thread.join(timeout_s)
        self._wake_w.close()

    def _run(self) -> None:
        timeout = None
        try:
            while True:
                events = self._selector.select(timeout)
                now = time.monotonic()
                for key, _ in events:
                    conn = key.data
                    if conn is not None:
                        # go by the event watched for: a hang-up reports both
                        if conn.events == selectors.EVENT_READ:
                            self._read(conn, now)
                        else:
                            self._pump(conn, now)
                    elif key.fileobj is self.listener:
                        self._accept(now)
                    else:
                        return  # woken by stop()
                if self._expiry is not None and now >= self._expiry:
                    self._expiry = self._expire(now)
                timeout = None if self._expiry is None else self._expiry - now
        finally:
            for conn in list(self._conns.values()):
                self._close(conn)
            self._selector.close()
            self.listener.close()
            self._wake_r.close()

    def _accept(self, now: float) -> None:
        try:
            sock, _ = self.listener.accept()
        except OSError:  # the peer gave up before the accept
            return
        sock.setblocking(False)
        if len(self._conns) >= MAX_CONNECTIONS:
            logger.warning("refused a connection: %d already open", len(self._conns))
            try:
                sock.send(_TOO_MANY)  # an empty send buffer takes it whole
            except OSError:
                pass
            sock.close()
            return
        conn = _Connection(sock, now)
        self._conns[sock] = conn
        if self._expiry is None:
            self._expiry = now + IDLE_TIMEOUT_S
        self._selector.register(sock, selectors.EVENT_READ, conn)

    def _read(self, conn: _Connection, now: float) -> None:
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:
            return
        except OSError:
            self._close(conn)
            return
        if data:
            conn.inbuf += data
            conn.last_io = now
        else:  # EOF, at a frame boundary or not, is bad framing
            conn.outbuf += _BAD_FRAMING
            conn.closing = True
        self._pump(conn, now)

    def _next_reply(self, conn: _Connection) -> bytes | None:
        """Reply to the next complete frame in the input buffer, if there is one."""
        buf = conn.inbuf
        if len(buf) < _PREFIX.size:
            return None
        (length,) = _PREFIX.unpack_from(buf)
        if not 2 <= length <= MAX_FRAME_BYTES:
            conn.closing = True
            return _BAD_FRAMING
        end = _PREFIX.size + length
        if len(buf) < end:
            return None
        version, msg_type, payload = buf[4], buf[5], bytes(buf[6:end])
        del buf[:end]
        try:
            return self.service._dispatch(conn, version, msg_type, payload)
        except X2WireError as exc:
            return _error_frame(ErrorCode.MALFORMED, str(exc))
        except _CloseConnection as exc:
            conn.closing = True
            return _error_frame(*exc.args)
        except Exception:  # a dispatch bug must not stop the loop
            logger.exception("internal dispatch failure on message type %d", msg_type)
            conn.closing = True
            return _INTERNAL_FAILURE

    def _pump(self, conn: _Connection, now: float) -> None:
        """Dispatch buffered frames and send their replies until input runs
        out or output backs up; then watch for whichever is missing."""
        out = conn.outbuf
        while True:
            full = False  # stopped at the bound, so frames may be left
            while not conn.closing:
                if len(out) >= _OUT_HIGH_WATER:
                    full = True
                    break
                reply = self._next_reply(conn)
                if reply is None:
                    break
                out += reply
            if not out:
                break
            try:
                sent = conn.sock.send(out)
            except BlockingIOError:
                sent = 0
            except OSError:
                self._close(conn)
                return
            if sent:  # a peer that takes bytes is not idle
                del out[:sent]
                conn.last_io = now
                conn.unsent = _unsent_bytes(conn.sock) if out else None
            if out or not full:
                break
        if conn.closing and not out:
            self._close(conn)
            return
        events = selectors.EVENT_WRITE if out else selectors.EVENT_READ
        if events != conn.events:
            conn.events = events
            self._selector.modify(conn.sock, events, conn)

    def _expire(self, now: float) -> float | None:
        """Close connections that moved no bytes for the idle deadline;
        return when the next one is due.  A slow reader may free too little of
        its send queue for its socket to become writable within a deadline,
        so while output waits, a drop in the queue's unsent count is progress."""
        oldest = None
        for conn in list(self._conns.values()):
            if now - conn.last_io >= IDLE_TIMEOUT_S:
                unsent = _unsent_bytes(conn.sock) if conn.outbuf else None
                if unsent is None or conn.unsent is None or unsent >= conn.unsent:
                    self._close(conn)
                    continue
                conn.last_io, conn.unsent = now, unsent
            if oldest is None or conn.last_io < oldest:
                oldest = conn.last_io
        return None if oldest is None else oldest + IDLE_TIMEOUT_S

    def _close(self, conn: _Connection) -> None:
        self._selector.unregister(conn.sock)
        del self._conns[conn.sock]
        conn.sock.close()


@dataclass
class X2Service:
    """Management-unit service: codebook distribution plus AP registry."""

    codebook: Codebook
    network_id: int
    host: str = "127.0.0.1"
    port: int = 0  # 0 → pick a free port
    _server: _Server | None = field(default=None, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _registrations: dict = field(default_factory=dict, repr=False)
    _proximity: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.codebook_bytes = serialize_codebook(self.codebook)
        self._cells = {m for ms in self.codebook.entries.values() for m in ms}
        self._codebook_frame = encode_message(MessageType.CODEBOOK, self.codebook_bytes)

    def start(self) -> "X2Service":
        """Listen and serve; a running service stays as it is."""
        if self._server is None:
            self._server = _Server(self, self.host, self.port)
        return self

    def stop(self) -> None:
        """Stop accepting, close every connection and join the service thread."""
        if self._server is not None:
            self._server.stop(_STOP_TIMEOUT_S)
            self._server = None

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise X2Error("service is not running")
        return self._server.address

    def __enter__(self) -> "X2Service":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def registrations(self) -> dict[str, ApRegistration]:
        with self._lock:
            return dict(self._registrations)

    def proximity_map(self) -> dict[str, frozenset[int]]:
        with self._lock:
            return dict(self._proximity)

    def _dispatch(self, conn: _Connection, version: int, msg_type: int, payload: bytes) -> bytes:
        """The reply frame to one request; _CloseConnection for a violation."""
        if version != PROTOCOL_VERSION:
            raise _CloseConnection(ErrorCode.VERSION, f"unsupported version {version}")
        if msg_type == MessageType.HELLO:
            ap_id, network_id = decode_hello(payload)
            if network_id != self.network_id:
                return _error_frame(ErrorCode.AUTH, "network id does not match this unit")
            self._register(ap_id, network_id)
            conn.registered_ap = ap_id
            return encode_message(MessageType.HELLO_ACK, struct.pack("!BI", PROTOCOL_VERSION, self.network_id))
        if msg_type == MessageType.GET_CODEBOOK:
            return self._codebook_frame
        if msg_type == MessageType.REPORT_PROXIMITY:
            ap_id, pairs, cells = decode_report(payload)
            if conn.registered_ap is None or ap_id != conn.registered_ap:
                return _error_frame(ErrorCode.AUTH, "report requires a completed handshake")
            problem = self._store_report(ap_id, pairs, cells)
            if problem is not None:
                return _error_frame(ErrorCode.UNKNOWN_CELL, problem)
            return encode_message(MessageType.REPORT_ACK, struct.pack("!H", len(cells)))
        raise _CloseConnection(ErrorCode.UNSUPPORTED, f"unknown message type {msg_type}")

    def _register(self, ap_id: str, network_id: int) -> None:
        with self._lock:
            self._registrations[ap_id] = ApRegistration(ap_id, network_id, (), time.time())

    def _store_report(self, ap_id: str, pairs, cells) -> str | None:
        unknown_cells = [c for c in cells if c not in self._cells]
        if unknown_cells:
            return f"unknown cell ids {sorted(unknown_cells)}"
        missing = [p for p in pairs if tuple(p) not in self.codebook.entries]
        if missing:
            return f"unknown (slot, cluster) tuples {sorted(missing)}"
        with self._lock:
            self._registrations[ap_id] = ApRegistration(
                ap_id, self.network_id, tuple(sorted(tuple(p) for p in pairs)), time.time()
            )
            self._proximity[ap_id] = frozenset(cells)
        return None


# ---------------------------------------------------------------------------
# Client.
# ---------------------------------------------------------------------------

class X2Client:
    """Blocking client with a per-operation deadline."""

    def __init__(
        self,
        address: tuple[str, int],
        network_id: int,
        ap_id: str = "ap-0",
        timeout_s: float = 2.0,
        version: int = PROTOCOL_VERSION,
    ) -> None:
        self.address = tuple(address)
        self.network_id = network_id
        self.ap_id = ap_id
        self.timeout_s = timeout_s
        self.version = version
        self._sock: socket.socket | None = None

    def connect(self) -> "X2Client":
        try:
            self._sock = socket.create_connection(self.address, timeout=self.timeout_s)
        except OSError as exc:
            raise X2ConnectivityError(f"cannot reach {self.address}: {exc}") from exc
        try:
            # requests are small and each waits for its reply: send them at once
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._roundtrip(
                MessageType.HELLO,
                encode_hello(self.ap_id, self.network_id),
                MessageType.HELLO_ACK,
            )
        except BaseException:
            self.close()  # __exit__ never runs when __enter__ raises
            raise
        return self

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "X2Client":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    def _roundtrip(self, msg_type: int, payload: bytes, expected: int) -> bytes:
        if self._sock is None:
            raise X2Error("client is not connected")
        try:
            self._sock.sendall(encode_message(msg_type, payload, self.version))
            version, got, body = read_message(self._sock)
        except (OSError, X2WireError) as exc:
            raise X2ConnectivityError(f"transport failure: {exc}") from exc
        if got == MessageType.ERROR:
            code, detail = decode_error(body)
            raise X2ProtocolError(f"{ErrorCode(code).name}: {detail}")
        if got != expected or version != PROTOCOL_VERSION:
            raise X2ProtocolError(f"unexpected reply type {got} (version {version})")
        return body

    def fetch_codebook(self) -> Codebook:
        return deserialize_codebook(self._roundtrip(MessageType.GET_CODEBOOK, b"", MessageType.CODEBOOK))

    def report_proximity(self, pairs, cells) -> int:
        body = self._roundtrip(
            MessageType.REPORT_PROXIMITY,
            encode_report(self.ap_id, pairs, cells),
            MessageType.REPORT_ACK,
        )
        (count,) = struct.unpack("!H", body)
        return count


def fetch_codebook(
    address: tuple[str, int],
    network_id: int,
    ap_id: str = "ap-0",
    timeout_s: float = 2.0,
    retries: int = 3,
    backoff_s: float = 0.05,
) -> Codebook:
    """Fetch with bounded retry/backoff; X2ConnectivityError when exhausted."""
    last: Exception | None = None
    for attempt in range(retries):
        try:
            with X2Client(address, network_id, ap_id, timeout_s) as client:
                return client.fetch_codebook()
        except X2ConnectivityError as exc:
            last = exc
            if attempt + 1 < retries:
                time.sleep(backoff_s * (attempt + 1))
    raise X2ConnectivityError(f"gave up after {retries} attempts: {last}")
