"""Distributed sweep shards: the ``remote`` executor backend.

The paper's central object is ``k`` searchers making progress with *no
communication*; this repo's analogue is the determinism contract —
independent workers compute bitwise-identical shards with no
coordination beyond seeds.  That contract is what makes a distributed
backend almost boring to add: because every task is a pure function of
its payload (DESIGN.md §8), a remote worker needs no shared state, no
ordering protocol, and no consensus — just the task bytes out and the
result bytes back.  A lost worker is handled by resubmitting its tasks
anywhere else, and the retry is bitwise-invisible in the results.

Two halves live here, both speaking one tiny TCP protocol:

* :class:`RemoteExecutor` — the driver side, a
  :class:`repro.sweep.executor.SweepExecutor` backend
  (``submit``/``next_completed``/``pending``/``discard``/``close``)
  that fans tasks out to ``repro-ants worker`` processes on other
  hosts.  An asyncio event loop on a background thread owns every
  socket; the executor surface stays synchronous and identical to the
  serial/process/virtual backends, so ``run_sweep`` cannot tell the
  difference — the parity property tests assert
  serial == process == remote, bitwise.
* :func:`serve_worker` — the worker side (the ``repro-ants worker``
  subcommand): an asyncio server that executes tasks from a driver and
  streams results back.  :class:`LoopbackWorker` runs the same server
  on a background thread of the current process — real sockets, real
  handshake, no subprocess management — for tests and single-machine
  smoke runs.

Wire protocol (version :data:`PROTOCOL_VERSION`)
------------------------------------------------

Every message is a *frame*: an 8-byte big-endian prefix (two uint32:
header length, payload length), a JSON header, and an optional raw
payload.  Arrays ride the payload exactly as the PR-5 shared-memory
transport ships them — a tiny descriptor (shape, dtype) in the header
and the contiguous float64 buffer as raw bytes; pickle never carries
array data.  Task payloads (the spec-plus-seeds tuples the runner
builds) are pickled, which is fine between mutually trusted hosts
running the same code — the handshake enforces exactly that.

===========  =========  ==================================================
type         direction  contents
===========  =========  ==================================================
``hello``    d -> w     ``versions``: protocol + determinism versions
``welcome``  w -> d     ``versions``, ``slots``, ``pid``
``reject``   w -> d     ``reason`` (version mismatch); connection closes
``task``     d -> w     ``id``, ``fn`` (dotted name), payload = pickle
``result``   w -> d     ``id``, ``shape``/``dtype``, payload = array bytes
``error``    w -> d     ``id``, ``error`` (the task raised; not a crash)
``ping``     d -> w     heartbeat probe
``pong``     w -> d     heartbeat reply
``bye``      d -> w     driver is done; worker keeps serving others
===========  =========  ==================================================

**Handshake.**  Results must be bitwise-identical to a local run, so a
worker running different *code identity* is useless — worse, silently
wrong.  Both sides therefore exchange and verify
:func:`version_record`: the protocol version, ``SPEC_VERSION`` and
``BLOCK_SCHEDULE_VERSION`` (the spec-manifest versions pinned by
``repro.checks``), and the package version.  Any mismatch rejects the
connection with the offending key in the reason.

**Liveness and resubmission.**  The driver pings every worker on a
fixed interval; a worker that stays silent for
``heartbeat_interval * heartbeat_misses`` — or holds a task past
``task_timeout`` — is declared lost: its connection is dropped and its
in-flight tasks are requeued to the surviving workers (each task at
most ``max_attempts`` times).  Because tasks are pure and results fold
strictly in schedule order on the driver, a resubmitted task returns
byte-identical data and a lost worker is invisible in the output — the
same argument that makes :class:`~repro.sweep.executor.ProcessExecutor`
crash rebuilds invisible, now at network scale.  Workers execute tasks
on a thread pool (``slots`` wide) so the event loop keeps answering
pings mid-task.

**Determinism.**  Host lists, worker counts, and slot counts never
reach seed derivation or spec fields (rule R004 polices the names);
which worker ran a task is unobservable in the result.  Task selection
is the runner's (backend-independent) job; this module only moves
bytes.
"""

from __future__ import annotations

import asyncio
import importlib
import itertools
import json
import math
import os
import pickle
import queue
import struct
import threading
import time
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..faults import FAULTS, FaultError, backoff_delays
from ..obs import BUS
from .executor import SweepExecutor, TaskFn, _invoke_task
from .spec import BLOCK_SCHEDULE_VERSION, SPEC_VERSION

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_PORT",
    "HOSTS_ENV",
    "RemoteExecutor",
    "RemoteTaskError",
    "LoopbackWorker",
    "serve_worker",
    "parse_hosts",
    "version_record",
    "version_mismatch",
    "encode_frame",
    "read_frame",
    "encode_array",
    "decode_array",
]

#: Wire protocol version; bumped on any frame/semantics change.
PROTOCOL_VERSION = 1

#: Default worker port (the CLI's ``--port`` default).
DEFAULT_PORT = 7077

#: Environment fallback for ``--hosts`` / ``make_executor(hosts=...)``.
HOSTS_ENV = "REPRO_REMOTE_HOSTS"

#: Connect attempts per host before giving up (jittered backoff between
#: tries; see :func:`repro.faults.backoff_delays`).  A refused or
#: flaky dial is retried; a *rejected handshake* (version mismatch) is
#: deterministic and never retried.
CONNECT_ATTEMPTS = 3

#: Frame prefix: header length, payload length (both uint32, big-endian).
_PREFIX = struct.Struct(">II")

#: Upper bound on either frame part — a corrupted prefix must not make
#: the reader try to allocate terabytes.
MAX_FRAME_BYTES = 1 << 31

#: Only module-level functions under this package may run as tasks: the
#: worker executes whatever the driver names, and the determinism
#: handshake only vouches for code shipped with the package.
_TASK_PACKAGE = "repro"

HostLike = Union[str, Tuple[str, int], Sequence[object]]


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------

def encode_frame(header: Dict[str, object], payload: bytes = b"") -> bytes:
    """One wire frame: prefix + JSON header + raw payload."""
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _PREFIX.pack(len(raw), len(payload)) + raw + payload


async def read_frame(
    reader: asyncio.StreamReader,
) -> Tuple[Dict[str, object], bytes]:
    """Read one frame; raises ``IncompleteReadError`` on a closed peer."""
    header_len, payload_len = _PREFIX.unpack(await reader.readexactly(8))
    if header_len > MAX_FRAME_BYTES or payload_len > MAX_FRAME_BYTES:
        raise ConnectionError(
            f"oversized frame ({header_len}+{payload_len} bytes): "
            f"corrupt stream or not a repro-ants peer"
        )
    header = json.loads((await reader.readexactly(header_len)).decode("utf-8"))
    if not isinstance(header, dict):
        raise ConnectionError("malformed frame header (not a JSON object)")
    payload = await reader.readexactly(payload_len) if payload_len else b""
    return header, payload


def encode_array(array: np.ndarray) -> Tuple[Dict[str, object], bytes]:
    """Frame an array as a ``(shape, dtype)`` header plus its raw bytes."""
    data = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    return {"shape": list(data.shape), "dtype": "float64"}, data.tobytes()


def decode_array(header: Dict[str, object], payload: bytes) -> np.ndarray:
    """Rebuild an array from its descriptor header + raw payload."""
    if header.get("dtype") != "float64":
        raise ValueError(f"unsupported wire dtype {header.get('dtype')!r}")
    shape = tuple(int(n) for n in header.get("shape", ()))
    if 8 * math.prod(shape) != len(payload):
        raise ValueError(
            f"array payload size {len(payload)} does not match shape {shape}"
        )
    return np.frombuffer(payload, dtype=np.float64).reshape(shape).copy()


def version_record() -> Dict[str, object]:
    """The code-identity record both handshake sides must agree on."""
    from .. import __version__

    return {
        "protocol": PROTOCOL_VERSION,
        "spec": SPEC_VERSION,
        "block_schedule": BLOCK_SCHEDULE_VERSION,
        "repro": __version__,
    }


def version_mismatch(
    mine: Dict[str, object], theirs: Dict[str, object]
) -> Optional[str]:
    """First disagreeing version key, or ``None`` when compatible."""
    for key in ("protocol", "spec", "block_schedule", "repro"):
        if mine.get(key) != theirs.get(key):
            return (
                f"{key} version mismatch: ours {mine.get(key)!r}, "
                f"peer {theirs.get(key)!r}"
            )
    return None


def parse_hosts(hosts: Union[str, Iterable[HostLike]]) -> List[Tuple[str, int]]:
    """Normalise a host list: ``"a:7077,b"`` or ``[("a", 7077), ...]``.

    A bare hostname gets :data:`DEFAULT_PORT`.  The same endpoint may
    appear more than once — each occurrence is one connection, which is
    how a many-core host offers several shards.
    """
    if isinstance(hosts, str):
        items: List[HostLike] = [p for p in hosts.split(",") if p.strip()]
    else:
        items = list(hosts)
    parsed: List[Tuple[str, int]] = []
    for item in items:
        if isinstance(item, (tuple, list)):
            if len(item) != 2:
                raise ValueError(f"host entry {item!r} is not (host, port)")
            host, port = str(item[0]), item[1]
        else:
            text = str(item).strip()
            host, sep, tail = text.rpartition(":")
            if sep:
                port = tail
            else:
                host, port = text, DEFAULT_PORT
        if not host:
            raise ValueError(f"host entry {item!r} has an empty hostname")
        try:
            port = int(port)
        except (TypeError, ValueError):
            raise ValueError(f"host entry {item!r} has a non-integer port")
        if not 0 < port < 65536:
            raise ValueError(f"host entry {item!r} has an out-of-range port")
        parsed.append((host, port))
    return parsed


def _task_name(fn: TaskFn) -> str:
    """Dotted wire name of a task function (module-level functions only)."""
    name = getattr(fn, "__qualname__", "")
    module = getattr(fn, "__module__", "")
    if not module or not name or "." in name:
        raise ValueError(
            f"remote tasks must be module-level functions, got {fn!r}"
        )
    return f"{module}.{name}"


def _resolve_task_fn(name: str) -> TaskFn:
    """Worker-side inverse of :func:`_task_name`, package-restricted."""
    module_name, sep, attr = name.rpartition(".")
    if not sep or not (
        module_name == _TASK_PACKAGE
        or module_name.startswith(_TASK_PACKAGE + ".")
    ):
        raise ValueError(
            f"refusing task fn {name!r}: only module-level functions under "
            f"the {_TASK_PACKAGE!r} package may run remotely"
        )
    fn = getattr(importlib.import_module(module_name), attr, None)
    if not callable(fn):
        raise ValueError(f"task fn {name!r} does not resolve to a callable")
    return fn


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

async def _handle_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    slots: int,
) -> None:
    """Serve one driver connection: handshake, then tasks until EOF/bye."""
    from concurrent.futures import ThreadPoolExecutor

    wlock = asyncio.Lock()

    async def send(header: Dict[str, object], payload: bytes = b"") -> None:
        async with wlock:
            writer.write(encode_frame(header, payload))
            await writer.drain()

    pool: Optional[ThreadPoolExecutor] = None
    running: set = set()
    try:
        try:
            header, _ = await asyncio.wait_for(read_frame(reader), 30.0)
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                asyncio.TimeoutError, ValueError):
            return
        if header.get("type") != "hello":
            return
        theirs = header.get("versions")
        mismatch = version_mismatch(
            version_record(), theirs if isinstance(theirs, dict) else {}
        )
        if mismatch is not None:
            await send({"type": "reject", "reason": mismatch})
            return
        await send({
            "type": "welcome",
            "versions": version_record(),
            "slots": int(slots),
            "pid": os.getpid(),
        })

        loop = asyncio.get_running_loop()
        pool = ThreadPoolExecutor(
            max_workers=max(1, int(slots)),
            thread_name_prefix="repro-worker-task",
        )

        async def run_task(ticket: object, fn_name: str, blob: bytes) -> None:
            try:
                fn = _resolve_task_fn(str(fn_name))
                payload = pickle.loads(blob)
                result, exec_s = await loop.run_in_executor(
                    pool, _invoke_task, fn, payload
                )
                head, body = encode_array(result)
                head.update({"type": "result", "id": ticket, "exec_s": exec_s})
                await send(head, body)
            except asyncio.CancelledError:
                raise
            except ConnectionError:
                pass  # driver went away; nothing left to tell it
            except Exception as error:
                try:
                    await send({
                        "type": "error",
                        "id": ticket,
                        "error": f"{type(error).__name__}: {error}",
                    })
                except ConnectionError:
                    pass

        while True:
            try:
                header, payload = await read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                break
            kind = header.get("type")
            if kind == "task":
                task = asyncio.ensure_future(
                    run_task(header.get("id"), str(header.get("fn")), payload)
                )
                running.add(task)
                task.add_done_callback(running.discard)
            elif kind == "ping":
                await send({"type": "pong"})
            elif kind == "bye":
                break
            # Unknown types are ignored: forward-compatible by default.
    finally:
        for task in running:
            task.cancel()
        if pool is not None:
            pool.shutdown(wait=False)
        try:
            writer.close()
        except Exception:
            pass


async def _serve(
    host: str,
    port: int,
    slots: int,
    ready: Optional[Callable[[str, int], None]],
    stop: Optional[asyncio.Event],
) -> None:
    server = await asyncio.start_server(
        lambda r, w: _handle_connection(r, w, slots), host, port
    )
    bound_host, bound_port = server.sockets[0].getsockname()[:2]
    if ready is not None:
        ready(bound_host, bound_port)
    async with server:
        if stop is None:
            await server.serve_forever()
        else:
            await stop.wait()


def serve_worker(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    *,
    slots: int = 1,
    ready: Optional[Callable[[str, int], None]] = None,
) -> None:
    """Run a sweep worker server until interrupted.

    ``port=0`` binds an ephemeral port; ``ready(host, port)`` is called
    with the bound address (the CLI prints it so drivers — and tests —
    can find an ephemeral worker).  ``slots`` is the number of tasks the
    worker executes concurrently per connection; the driver mirrors it
    as its per-worker queue depth.  The worker outlives drivers: a
    finished (or dead) driver's connection closes and the server keeps
    accepting new ones, the worker-side analogue of the persistent
    process pool.
    """
    try:
        asyncio.run(_serve(host, port, slots, ready, None))
    except KeyboardInterrupt:
        pass


class LoopbackWorker:
    """A worker served from a background thread of this process.

    Exercises the full wire path — sockets, handshake, framing, the
    thread-pool task runner — without subprocess management, which is
    what the parity property tests (and quick local demos) want.  The
    bound ``(host, port)`` is available as :attr:`address` once the
    constructor returns.
    """

    def __init__(self, host: str = "127.0.0.1", slots: int = 1) -> None:
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, args=(host, slots),
            name="repro-loopback-worker", daemon=True,
        )
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("loopback worker failed to start")

    def _run(self, host: str, slots: int) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()

            def ready(bound_host: str, bound_port: int) -> None:
                self.address = (bound_host, bound_port)
                self._started.set()

            await _serve(host, 0, slots, ready, self._stop)

        try:
            asyncio.run(main())
        finally:
            self._started.set()  # unblock a waiting constructor on failure

    def stop(self) -> None:
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "LoopbackWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Driver side
# ----------------------------------------------------------------------

class RemoteTaskError(RuntimeError):
    """A task *raised* on a worker (as opposed to the worker dying).

    Mirrors the process backend, where a task exception propagates to
    the collector while a worker crash triggers a resubmit: raising code
    is deterministic, so retrying it elsewhere would fail identically.
    """


class _RemoteTask:
    __slots__ = ("ticket", "fn_name", "payload", "attempts", "delivered")

    def __init__(self, ticket: int, fn_name: str, payload: bytes) -> None:
        self.ticket = ticket
        self.fn_name = fn_name
        self.payload = payload
        self.attempts = 0
        self.delivered = False


class _Conn:
    __slots__ = (
        "name", "reader", "writer", "wlock", "slots", "inflight",
        "alive", "last_seen", "last_ping", "reader_task", "hb_task",
    )

    def __init__(self, name, reader, writer, slots) -> None:
        self.name = name
        self.reader = reader
        self.writer = writer
        self.wlock = asyncio.Lock()
        self.slots = slots
        self.inflight: Dict[int, float] = {}  # ticket -> deadline
        self.alive = True
        self.last_seen = time.monotonic()
        self.last_ping: Optional[float] = None  # heartbeat RTT probe
        self.reader_task: Optional[asyncio.Task] = None
        self.hb_task: Optional[asyncio.Task] = None


class RemoteExecutor(SweepExecutor):
    """Distributed sweep execution across ``repro-ants worker`` hosts.

    Connections open lazily on the first :meth:`submit` — a sweep
    resolved entirely from cache never touches the network, mirroring
    the lazy process pool.  At least one host must complete the
    version handshake or the first submit raises; workers lost later
    have their tasks requeued to the survivors, and only when *all*
    workers are gone do outstanding tasks fail (delivered as exceptions
    through :meth:`next_completed`, exactly like the process backend's
    give-up path, so `run_sweep`'s discard-on-failure cleanup applies
    unchanged).
    """

    backend = "remote"

    def __init__(
        self,
        hosts: Union[str, Iterable[HostLike]],
        *,
        slots: int = 1,
        connect_timeout: float = 10.0,
        heartbeat_interval: float = 2.0,
        heartbeat_misses: int = 3,
        task_timeout: Optional[float] = None,
        max_attempts: int = 3,
    ) -> None:
        self._hosts = parse_hosts(hosts)
        if not self._hosts:
            raise ValueError("remote backend needs at least one host")
        self._slots = max(1, int(slots))
        #: Scheduling width for the runner (never affects results).
        self.workers = len(self._hosts) * self._slots
        self._connect_timeout = float(connect_timeout)
        self._hb_interval = float(heartbeat_interval)
        self._hb_misses = max(1, int(heartbeat_misses))
        self._task_timeout = (
            None if task_timeout is None else float(task_timeout)
        )
        self._max_attempts = max(1, int(max_attempts))
        self._lock = threading.Lock()
        self._records: Dict[int, _RemoteTask] = {}
        self._ready: "queue.SimpleQueue" = queue.SimpleQueue()
        self._tickets = itertools.count()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._conns: List[_Conn] = []
        self._backlog: Deque[int] = deque()
        self._closed = False
        self._broken: Optional[str] = None
        # concurrent.futures.Future for the in-flight _connect_all, kept
        # so close() can cancel a dial blocked on an unresponsive host.
        self._connect_future: Optional[object] = None

    # -- lifecycle -----------------------------------------------------
    def _ensure_started(self) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            if self._broken is not None:
                raise RuntimeError(self._broken)
            if self._thread is not None:
                return
            loop = asyncio.new_event_loop()
            thread = threading.Thread(
                target=loop.run_forever,
                name="repro-remote-driver",
                daemon=True,
            )
            self._loop, self._thread = loop, thread
            thread.start()
        future = asyncio.run_coroutine_threadsafe(self._connect_all(), loop)
        with self._lock:
            self._connect_future = future
        try:
            future.result(
                timeout=self._connect_timeout * CONNECT_ATTEMPTS + 10.0
            )
        except BaseException as error:
            message = (
                "remote backend failed to start: "
                f"{error or type(error).__name__}"
            )
            with self._lock:
                self._broken = message
            raise RuntimeError(message) from error
        finally:
            with self._lock:
                self._connect_future = None

    async def _connect_all(self) -> None:
        attempts = await asyncio.gather(
            *[self._connect(host, port) for host, port in self._hosts],
            return_exceptions=True,
        )
        if not self._conns:
            reasons = "; ".join(str(a) for a in attempts if a is not None)
            raise RuntimeError(f"no remote workers reachable: {reasons}")

    async def _connect(self, host: str, port: int) -> None:
        """Dial one worker, retrying transient failures with backoff.

        Refused/timed-out dials and connections lost mid-handshake are
        transient: they retry up to :data:`CONNECT_ATTEMPTS` times on
        the unified jittered schedule (each retry obs-counted).
        Deterministic rejections — version mismatches, a peer that is
        not a worker — raise immediately as ``RuntimeError``.
        """
        name = f"{host}:{port}"
        delays = backoff_delays(attempts=CONNECT_ATTEMPTS)
        attempt = 1
        while True:
            try:
                await self._connect_once(name, host, port)
                return
            except RuntimeError:
                raise  # deterministic rejection: retrying cannot help
            except (OSError, asyncio.TimeoutError) as error:
                delay = next(delays, None)
                if delay is None:
                    raise RuntimeError(f"{name}: {error or 'connect timeout'}")
                if BUS.enabled:
                    BUS.counter(
                        "retry.attempt", site="remote.connect",
                        attempt=attempt,
                    )
                attempt += 1
                await asyncio.sleep(delay)

    async def _connect_once(self, name: str, host: str, port: int) -> None:
        if FAULTS.enabled and FAULTS.check("remote.connect") is not None:
            raise FaultError("injected connect refusal")
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), self._connect_timeout
        )
        try:
            writer.write(encode_frame(
                {"type": "hello", "versions": version_record()}
            ))
            await writer.drain()
            header, _ = await asyncio.wait_for(
                read_frame(reader), self._connect_timeout
            )
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                asyncio.TimeoutError) as error:
            writer.close()
            # A connection lost mid-handshake is as transient as a
            # refused dial: surface it as OSError so _connect retries.
            raise OSError(f"{name}: handshake failed ({error!r})")
        if header.get("type") == "reject":
            writer.close()
            raise RuntimeError(
                f"{name}: rejected handshake: {header.get('reason')}"
            )
        if header.get("type") != "welcome":
            writer.close()
            raise RuntimeError(
                f"{name}: unexpected handshake reply {header.get('type')!r}"
            )
        theirs = header.get("versions")
        mismatch = version_mismatch(
            version_record(), theirs if isinstance(theirs, dict) else {}
        )
        if mismatch is not None:
            writer.close()
            raise RuntimeError(f"{name}: {mismatch}")
        slots = min(self._slots, max(1, int(header.get("slots", 1))))
        conn = _Conn(name, reader, writer, slots)
        self._conns.append(conn)
        conn.reader_task = asyncio.ensure_future(self._reader_loop(conn))
        conn.hb_task = asyncio.ensure_future(self._heartbeat_loop(conn))

    # -- loop-thread machinery -----------------------------------------
    def _enqueue(self, ticket: int) -> None:
        self._backlog.append(ticket)
        self._pump()

    def _pump(self) -> None:
        """Assign backlog tickets to the least-loaded live workers."""
        while self._backlog:
            live = [
                c for c in self._conns
                if c.alive and len(c.inflight) < c.slots
            ]
            if not live:
                return
            ticket = self._backlog.popleft()
            with self._lock:
                record = self._records.get(ticket)
            if record is None or record.delivered:
                continue  # discarded (or already failed) while queued
            conn = min(live, key=lambda c: len(c.inflight))
            deadline = (
                math.inf if self._task_timeout is None
                else time.monotonic() + self._task_timeout
            )
            conn.inflight[ticket] = deadline
            asyncio.ensure_future(self._send_task(conn, ticket, record))

    async def _send_task(
        self, conn: _Conn, ticket: int, record: _RemoteTask
    ) -> None:
        if FAULTS.enabled:
            rule = FAULTS.check("remote.slow")
            if rule is not None and rule.delay > 0.0:
                await asyncio.sleep(rule.delay)
            if FAULTS.check("remote.disconnect") is not None:
                # The link drops mid-dispatch: the worker never saw the
                # task, so the normal lost-worker path must requeue it.
                self._worker_failed(conn, "injected disconnect")
                return
        frame = encode_frame(
            {"type": "task", "id": ticket, "fn": record.fn_name},
            record.payload,
        )
        try:
            async with conn.wlock:
                conn.writer.write(frame)
                await conn.writer.drain()
        except (ConnectionError, OSError):
            self._worker_failed(conn, "send failed")
            return
        if BUS.enabled:
            BUS.counter("remote.dispatch", ticket=ticket, worker=conn.name)

    async def _reader_loop(self, conn: _Conn) -> None:
        try:
            while conn.alive:
                header, payload = await read_frame(conn.reader)
                conn.last_seen = time.monotonic()
                kind = header.get("type")
                if kind == "result":
                    ticket = int(header["id"])  # type: ignore[arg-type]
                    conn.inflight.pop(ticket, None)
                    try:
                        value = decode_array(header, payload)
                    except (ValueError, TypeError) as error:
                        self._finish(ticket, RemoteTaskError(
                            f"undecodable result from {conn.name}: {error}"
                        ))
                    else:
                        if BUS.enabled:
                            exec_s = header.get("exec_s")
                            BUS.counter(
                                "executor.complete", ticket=ticket,
                                backend=self.backend, worker=conn.name,
                                exec_s=(
                                    float(exec_s)
                                    if isinstance(exec_s, (int, float))
                                    else None
                                ),
                            )
                        self._finish(ticket, value)
                    self._pump()
                elif kind == "error":
                    ticket = int(header["id"])  # type: ignore[arg-type]
                    conn.inflight.pop(ticket, None)
                    self._finish(ticket, RemoteTaskError(
                        f"task failed on {conn.name}: "
                        f"{header.get('error', 'unknown error')}"
                    ))
                    self._pump()
                elif kind == "pong":
                    if BUS.enabled and conn.last_ping is not None:
                        BUS.gauge(
                            "remote.heartbeat",
                            time.monotonic() - conn.last_ping,
                            worker=conn.name,
                        )
                # Unknown types: last_seen is already updated.
        except asyncio.CancelledError:
            return
        except (asyncio.IncompleteReadError, ConnectionError, OSError) as err:
            self._worker_failed(
                conn, f"connection lost ({type(err).__name__})"
            )

    async def _heartbeat_loop(self, conn: _Conn) -> None:
        try:
            while conn.alive:
                await asyncio.sleep(self._hb_interval)
                if not conn.alive:
                    return
                if (
                    FAULTS.enabled
                    and FAULTS.check("remote.blackhole") is not None
                ):
                    # The worker has gone silent: exactly what a missed
                    # heartbeat budget detects, declared immediately.
                    self._worker_failed(
                        conn, "injected heartbeat blackhole"
                    )
                    return
                now = time.monotonic()
                if now - conn.last_seen > self._hb_interval * self._hb_misses:
                    self._worker_failed(conn, "heartbeat timeout")
                    return
                if any(now > deadline for deadline in conn.inflight.values()):
                    self._worker_failed(conn, "task timeout")
                    return
                try:
                    conn.last_ping = time.monotonic()
                    async with conn.wlock:
                        conn.writer.write(encode_frame({"type": "ping"}))
                        await conn.writer.drain()
                except (ConnectionError, OSError):
                    self._worker_failed(conn, "ping failed")
                    return
        except asyncio.CancelledError:
            return

    def _finish(self, ticket: int, outcome: object) -> None:
        """Deliver a ticket's outcome exactly once (first result wins)."""
        with self._lock:
            record = self._records.get(ticket)
            if record is None or record.delivered:
                return  # discarded, or a resubmit raced its original
            record.delivered = True
        self._ready.put((ticket, outcome))

    def _worker_failed(self, conn: _Conn, reason: str) -> None:
        """Declare a worker lost and requeue its in-flight tasks."""
        if not conn.alive:
            return
        conn.alive = False
        for task in (conn.reader_task, conn.hb_task):
            if task is not None and task is not asyncio.current_task():
                task.cancel()
        try:
            conn.writer.close()
        except Exception:
            pass
        inflight = list(conn.inflight)
        conn.inflight.clear()
        if BUS.enabled:
            BUS.counter(
                "remote.worker_lost", worker=conn.name, reason=reason,
                inflight=len(inflight),
            )
        for ticket in inflight:
            with self._lock:
                record = self._records.get(ticket)
            if record is None or record.delivered:
                continue
            record.attempts += 1
            if record.attempts >= self._max_attempts:
                self._finish(ticket, RuntimeError(
                    f"remote task resubmitted {record.attempts} times "
                    f"without completing (last worker {conn.name}: {reason})"
                ))
            else:
                if BUS.enabled:
                    BUS.counter(
                        "remote.resubmit", ticket=ticket, worker=conn.name,
                        cause=reason,
                    )
                self._backlog.append(ticket)
        if any(c.alive for c in self._conns):
            self._pump()
            return
        # No workers left: fail every outstanding ticket so collectors
        # wake up, and poison future submits with the reason.
        message = f"all remote workers lost (last: {conn.name}: {reason})"
        with self._lock:
            self._broken = message
            outstanding = [
                t for t, r in self._records.items() if not r.delivered
            ]
        self._backlog.clear()
        for ticket in outstanding:
            self._finish(ticket, RuntimeError(message))

    # -- executor surface ----------------------------------------------
    def submit(self, fn: TaskFn, payload: object) -> int:
        name = _task_name(fn)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._ensure_started()
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            ticket = next(self._tickets)
            self._records[ticket] = _RemoteTask(ticket, name, blob)
            depth = len(self._records)
        if BUS.enabled:
            BUS.counter("executor.submit", ticket=ticket, backend=self.backend)
            BUS.gauge("executor.queue_depth", depth, backend=self.backend)
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._enqueue, ticket)
        return ticket

    def next_completed(self) -> Tuple[int, np.ndarray]:
        while True:
            with self._lock:
                if not self._records:
                    raise RuntimeError(
                        "next_completed() with no pending tasks"
                    )
            ticket, outcome = self._ready.get()
            with self._lock:
                record = self._records.pop(ticket, None)
            if record is None:
                continue  # outcome of a discarded task; drop it
            if isinstance(outcome, BaseException):
                raise outcome
            return ticket, outcome

    def discard(self, tickets: Iterable[int]) -> None:
        with self._lock:
            for ticket in set(tickets):
                self._records.pop(ticket, None)
        # Backlog/in-flight remnants resolve lazily: the pump skips
        # tickets without records, and arriving results are dropped.

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._records)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._records.clear()
            loop, thread = self._loop, self._thread
            connect = self._connect_future
            self._loop = self._thread = None
        if connect is not None:
            # A dial can sit inside wait_for against an unresponsive
            # host for the full connect budget.  Cancelling the
            # threadsafe future cancels the loop-side _connect_all
            # task, which unblocks any _ensure_started() caller — so
            # close() stays bounded even mid-handshake.
            connect.cancel()  # type: ignore[attr-defined]
        if loop is None:
            return
        try:
            asyncio.run_coroutine_threadsafe(
                self._shutdown(), loop
            ).result(timeout=5.0)
        except Exception:
            pass
        loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join(timeout=5.0)
            if not thread.is_alive():
                loop.close()

    async def _shutdown(self) -> None:
        for conn in self._conns:
            conn.alive = False
            for task in (conn.reader_task, conn.hb_task):
                if task is not None:
                    task.cancel()
            try:
                conn.writer.write(encode_frame({"type": "bye"}))
                await asyncio.wait_for(conn.writer.drain(), 1.0)
            except Exception:
                pass
            try:
                conn.writer.close()
            except Exception:
                pass
