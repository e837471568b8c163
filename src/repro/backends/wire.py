"""Pickle-free wire protocol of the remote-worker transport.

Everything the ``remote`` backend and the worker agent exchange crosses
one length-prefixed binary TCP framing, defined here and nowhere else:

* **Frame** — ``MAGIC (4B) | kind (u8) | protocol version (u16 LE) |
  header length (u32 LE) | array payload length (u64 LE) | JSON header |
  raw array bytes``.  The header is a plain JSON object; its ``"arrays"``
  entry lists ``[name, dtype, shape]`` triples describing the raw numpy
  buffers that follow, concatenated in order.  Numpy data is sent as raw
  little-endian C-contiguous bytes — no pickling, no copies beyond the
  socket buffer.
* **Handshake** — the first frame on a connection must be ``HELLO``; the
  worker answers ``HELLO`` back (or an ``ERROR`` frame naming
  :class:`ProtocolVersionError` and closes) so an incompatible peer gets
  a clean, immediate error instead of a hang.  Every later frame carries
  the version too, so drift mid-connection is also caught.
* **Engine spec** — :func:`spec_to_wire` / :func:`spec_from_wire`
  flatten an :class:`~repro.backends.base.EngineSpec` into JSON-able
  configuration plus raw conductance/gain buffers and rebuild the exact
  served module on the worker.  This is deliberately **not** pickle: a
  worker agent listens on a socket, and unpickling attacker-controlled
  bytes executes arbitrary code.  Only whitelisted dataclass fields and
  typed numpy buffers cross the wire; the factorisation never does (the
  worker re-runs ``spec.build_engine()`` locally, exactly like the
  process-pool workers).
* **Errors** — a computation error on the worker becomes an ``ERROR``
  frame carrying the exception's type name and message; the backend
  resurfaces it through the same transportable-type table the process
  backend uses, so a ``ValueError`` raised remotely is a ``ValueError``
  to the caller.

The protocol is versioned by :data:`PROTOCOL_VERSION`; bump it whenever
the framing, the handshake, or the spec/result schemas change shape.
"""

from __future__ import annotations

import dataclasses
import json
import math
import socket
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.backends.base import EVENT_KEYS, EngineSpec
from repro.core.amm import (
    AssociativeMemoryModule,
    BatchRecognitionResult,
    InputDacBank,
)
from repro.core.config import DesignParameters
from repro.core.wta import SpinCmosWta
from repro.crossbar.array import ResistiveCrossbar
from repro.crossbar.batched import BatchCrossbarSolution
from repro.crossbar.parasitics import WireParasitics
from repro.devices.dwn import DwnConfig
from repro.devices.latch import DynamicCmosLatch
from repro.devices.mtj import MagneticTunnelJunction

#: First bytes of every frame; a peer that is not speaking this protocol
#: fails the very first read instead of desynchronising the stream.
MAGIC = b"RPRW"

#: Wire-protocol version; both peers must agree at handshake time.
PROTOCOL_VERSION = 2

#: ``MAGIC | kind u8 | version u16 | header_len u32 | arrays_len u64``.
_FRAME_HEADER = struct.Struct("<4sBHIQ")

#: Upper bounds on frame parts — a corrupt or hostile length prefix must
#: not make the receiver allocate unbounded memory.
MAX_HEADER_BYTES = 16 * 1024 * 1024
MAX_ARRAY_BYTES = 1024 * 1024 * 1024

# Frame kinds.
HELLO = 1
OK = 2
ERROR = 3
SPEC = 4
RECALL = 5
RESULT = 6
SOLVE = 7
SOLUTION = 8
PING = 9
PONG = 10
BYE = 11
# Serving binary endpoint (repro.serving.aio): a bulk client submits a
# RECOGNISE batch and the server answers resolved rows in ROWS chunks,
# terminated by one DONE summary frame.  Additive kinds — the framing,
# handshake and existing schemas are unchanged, so the protocol version
# stays compatible with PR 5 workers.
RECOGNISE = 12
ROWS = 13
DONE = 14
# Fleet control plane (repro.backends.fleet): an admin client (or a
# worker announcing itself) speaks these against the control socket of
# a serving process.  JOIN admits (or readmits) a worker address into
# the replica set, DRAIN excludes one from routing after its in-flight
# shard completes, RESPEC triggers a rolling EngineSpec push across the
# fleet, STATUS asks for the supervisor's replica/health snapshot.
# Additive kinds again — framing, handshake and data schemas are
# unchanged, so PR 5 workers still interoperate.
JOIN = 15
DRAIN = 16
RESPEC = 17
STATUS = 18

#: Size of the fixed-length frame prefix every frame starts with.
PREFIX_SIZE = _FRAME_HEADER.size

#: Exception types a worker may transport back by name; anything else
#: resurfaces as a RuntimeError tagged with the original type (the same
#: containment rule as the process-pool control pipe).
TRANSPORTABLE_ERRORS = {
    "ValueError": ValueError,
    "TypeError": TypeError,
    "OverflowError": OverflowError,
    "KeyError": KeyError,
    "RuntimeError": RuntimeError,
    "LinAlgError": np.linalg.LinAlgError,
}


class WireProtocolError(RuntimeError):
    """The byte stream does not follow the framing contract."""


class ProtocolVersionError(WireProtocolError):
    """The two peers speak different protocol versions."""


class ConnectionClosedError(ConnectionError):
    """The peer closed the connection mid-frame (or before one)."""


def transported_error(type_name: str, message: str) -> Exception:
    """Rebuild a worker-side exception from its ``ERROR`` frame fields."""
    if type_name == "ProtocolVersionError":
        return ProtocolVersionError(message)
    if type_name in TRANSPORTABLE_ERRORS:
        return TRANSPORTABLE_ERRORS[type_name](message)
    return RuntimeError(f"{type_name}: {message}")


# ---------------------------------------------------------------------- #
# Framing
# ---------------------------------------------------------------------- #
def _send_gathered(sock: socket.socket, parts) -> None:
    """Send every buffer in ``parts`` as one writev-style gathered write.

    ``sendmsg`` hands the kernel the whole frame in a single syscall, so
    the prefix, JSON header and each array buffer leave in one TCP
    segment train instead of 2+N ``sendall`` calls (each a syscall and a
    potential small segment under Nagle).  Partial sends are finished by
    advancing through the buffer list; platforms without ``sendmsg``
    fall back to sequential ``sendall``.
    """
    views = [memoryview(part).cast("B") for part in parts]
    if not hasattr(sock, "sendmsg"):  # pragma: no cover - non-POSIX
        for view in views:
            sock.sendall(view)
        return
    while views:
        sent = sock.sendmsg(views)
        while views and sent >= len(views[0]):
            sent -= len(views[0])
            views.pop(0)
        if sent:
            views[0] = views[0][sent:]


def encode_frame(
    kind: int,
    header: Optional[dict] = None,
    arrays: Optional[Dict[str, np.ndarray]] = None,
) -> List[object]:
    """Serialise one frame into its wire buffers (prefix, header, arrays).

    The buffer list is transport-agnostic: the socket path hands it to a
    gathered ``sendmsg`` (:func:`send_frame`) and the asyncio path hands
    it to a stream writer — both emit byte-identical frames because this
    is the only encoder.
    """
    header = dict(header or {})
    buffers = []
    manifest = []
    for name, array in (arrays or {}).items():
        array = np.ascontiguousarray(array)
        if array.dtype.byteorder == ">":  # pragma: no cover - BE hosts
            array = array.astype(array.dtype.newbyteorder("<"))
        manifest.append([name, array.dtype.str, list(array.shape)])
        buffers.append(array)
    header["arrays"] = manifest
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    arrays_len = sum(buffer.nbytes for buffer in buffers)
    prefix = _FRAME_HEADER.pack(
        MAGIC, kind, PROTOCOL_VERSION, len(header_bytes), arrays_len
    )
    return [prefix, header_bytes, *buffers]


def send_frame(
    sock: socket.socket,
    kind: int,
    header: Optional[dict] = None,
    arrays: Optional[Dict[str, np.ndarray]] = None,
) -> None:
    """Serialise and send one frame (header JSON + raw array buffers).

    The whole frame — length prefix, header and every array buffer —
    goes out as one gathered write (see :func:`_send_gathered`), so a
    shard dispatch costs one send syscall rather than one per buffer.
    """
    _send_gathered(sock, encode_frame(kind, header, arrays))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`ConnectionClosedError`."""
    parts = bytearray()
    while len(parts) < count:
        chunk = sock.recv(min(count - len(parts), 1 << 20))
        if not chunk:
            raise ConnectionClosedError(
                f"connection closed after {len(parts)} of {count} expected bytes"
            )
        parts.extend(chunk)
    return bytes(parts)


def unpack_prefix(prefix: bytes) -> Tuple[int, int, int, int]:
    """Validate and unpack one fixed-length frame prefix.

    Returns ``(kind, version, header_len, arrays_len)``; raises
    :class:`WireProtocolError` on bad magic or oversized declared
    lengths, so a corrupt or hostile prefix can never make the receiver
    allocate unbounded memory.
    """
    magic, kind, version, header_len, arrays_len = _FRAME_HEADER.unpack(prefix)
    if magic != MAGIC:
        raise WireProtocolError(
            f"bad frame magic {magic!r}; peer is not speaking the repro wire protocol"
        )
    if header_len > MAX_HEADER_BYTES or arrays_len > MAX_ARRAY_BYTES:
        raise WireProtocolError(
            f"frame too large (header {header_len} B, arrays {arrays_len} B)"
        )
    return kind, version, header_len, arrays_len


def decode_header(data: bytes) -> dict:
    """Parse one frame's JSON header, enforcing the object shape."""
    header = json.loads(data)
    if not isinstance(header, dict):
        raise WireProtocolError("frame header must be a JSON object")
    return header


def decode_arrays(header: dict, payload: bytes) -> Dict[str, np.ndarray]:
    """Rebuild the numpy arrays a frame's ``"arrays"`` manifest describes.

    ``payload`` is the frame's whole array section; every manifest entry
    is validated (dtype, shape, payload coverage) exactly as the socket
    receive path always did, so the asyncio and socket decoders cannot
    drift.
    """
    arrays: Dict[str, np.ndarray] = {}
    consumed = 0
    arrays_len = len(payload)
    for entry in header.get("arrays", []):
        name, dtype_str, shape = entry
        dtype = np.dtype(dtype_str)
        if dtype.hasobject:
            raise WireProtocolError(f"array {name!r} has a forbidden object dtype")
        if not isinstance(shape, list) or not all(
            type(dim) is int and dim >= 0 for dim in shape
        ):
            raise WireProtocolError(f"array {name!r} has a malformed shape {shape!r}")
        # Exact product in Python ints: a hostile shape like
        # [2**32, 2**32] must trip the size bound, not wrap an int64.
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes > MAX_ARRAY_BYTES or consumed + nbytes > arrays_len:
            raise WireProtocolError(f"array {name!r} overruns the frame payload")
        arrays[name] = np.frombuffer(
            payload, dtype=dtype, count=math.prod(shape), offset=consumed
        ).reshape(shape)
        consumed += nbytes
    if consumed != arrays_len:
        raise WireProtocolError(
            f"frame declares {arrays_len} payload bytes but arrays cover {consumed}"
        )
    return arrays


def recv_frame(
    sock: socket.socket,
) -> Tuple[int, int, dict, Dict[str, np.ndarray]]:
    """Receive one frame; returns ``(kind, version, header, arrays)``.

    Raises :class:`WireProtocolError` on bad magic or oversized lengths
    and :class:`ConnectionClosedError` on EOF.  The caller decides what a
    version mismatch means (the handshake rejects it; data frames after a
    successful handshake treat it as stream corruption).
    """
    prefix = _recv_exact(sock, _FRAME_HEADER.size)
    kind, version, header_len, arrays_len = unpack_prefix(prefix)
    header = decode_header(_recv_exact(sock, header_len))
    arrays = decode_arrays(header, _recv_exact(sock, arrays_len))
    return kind, version, header, arrays


def send_error(sock: socket.socket, error: BaseException) -> None:
    """Transport an exception as an ``ERROR`` frame."""
    send_frame(
        sock,
        ERROR,
        header={"type": type(error).__name__, "message": str(error)},
    )


# ---------------------------------------------------------------------- #
# EngineSpec <-> wire state
# ---------------------------------------------------------------------- #
def spec_to_wire(spec: EngineSpec) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Flatten an :class:`EngineSpec` into ``(json_header, raw_arrays)``.

    The header carries only whitelisted dataclass fields and scalars; the
    arrays carry the programmed analog state exactly (conductances, DAC
    bit conductances, WTA gains, labels), so the worker's rebuilt module
    is bit-identical to the parent's on the seeded recall path.
    """
    module = spec.module
    wta = module.wta
    neuron = wta.neurons[0]
    header = {
        "parameters": dataclasses.asdict(module.parameters),
        "parasitics": dataclasses.asdict(module.crossbar.parasitics),
        "dac_bank": {
            "rows": module.input_dacs.rows,
            "bits": module.input_dacs.bits,
            "unit_conductance": module.input_dacs.unit_conductance,
            "mismatch_sigma": module.input_dacs.mismatch_sigma,
        },
        "wta": {
            "columns": wta.columns,
            "resolution_bits": wta.resolution_bits,
            "full_scale_current": wta.full_scale_current,
            "dac_gain_sigma": wta.dac_gain_sigma,
            "reset_neurons": wta.reset_neurons,
            "dwn_config": dataclasses.asdict(wta.dwn_config),
            "latch": dataclasses.asdict(neuron.latch),
            "mtj": {
                "r_parallel_ohm": neuron.mtj.r_parallel_ohm,
                "r_antiparallel_ohm": neuron.mtj.r_antiparallel_ohm,
                "scale": neuron.mtj._scale,
            },
        },
        "include_parasitics": module.include_parasitics,
        "input_variation": module.input_variation,
    }
    arrays = {
        "conductances": module.crossbar.conductances,
        "dummy_conductances": module.crossbar.dummy_conductances,
        "bit_conductances": module.input_dacs.bit_conductances,
        "dac_gains": wta._dac_gains,
        "column_labels": module.column_labels,
    }
    return header, arrays


def spec_from_wire(header: dict, arrays: Dict[str, np.ndarray]) -> EngineSpec:
    """Rebuild the :class:`EngineSpec` a :func:`spec_to_wire` header names.

    Reconstruction is explicit field-by-field object assembly — never
    pickle — so a hostile header can at worst produce a module whose
    validation fails, not code execution.
    """
    params = dict(header["parameters"])
    params["template_shape"] = tuple(params["template_shape"])
    params["free_layer_nm"] = tuple(params["free_layer_nm"])
    parameters = DesignParameters(**params)
    crossbar = ResistiveCrossbar(
        conductances=np.array(arrays["conductances"], dtype=float),
        dummy_conductances=np.array(arrays["dummy_conductances"], dtype=float),
        parasitics=WireParasitics(**header["parasitics"]),
    )
    dac_header = header["dac_bank"]
    # Bypass the constructor's fresh mismatch draw: the parent's exact
    # per-bit conductances (including its mismatch realisation) are the
    # programmed state, shipped raw (the same trick as ``rescaled``).
    bank = InputDacBank.__new__(InputDacBank)
    bank.rows = int(dac_header["rows"])
    bank.bits = int(dac_header["bits"])
    bank.unit_conductance = float(dac_header["unit_conductance"])
    bank.mismatch_sigma = float(dac_header["mismatch_sigma"])
    bank.bit_conductances = np.array(arrays["bit_conductances"], dtype=float)
    wta_header = header["wta"]
    mtj = MagneticTunnelJunction(
        r_parallel_ohm=wta_header["mtj"]["r_parallel_ohm"],
        r_antiparallel_ohm=wta_header["mtj"]["r_antiparallel_ohm"],
    )
    mtj._scale = float(wta_header["mtj"]["scale"])
    wta = SpinCmosWta(
        columns=int(wta_header["columns"]),
        resolution_bits=int(wta_header["resolution_bits"]),
        full_scale_current=float(wta_header["full_scale_current"]),
        dwn_config=DwnConfig(**wta_header["dwn_config"]),
        dac_gain_sigma=0.0,
        latch=DynamicCmosLatch(**wta_header["latch"]),
        mtj=mtj,
        reset_neurons=bool(wta_header["reset_neurons"]),
        seed=0,
    )
    # Restore the parent's construction-time draws; the seeded recall
    # path derives everything else from per-request substreams.
    wta.dac_gain_sigma = float(wta_header["dac_gain_sigma"])
    wta._dac_gains = np.array(arrays["dac_gains"], dtype=float)
    module = AssociativeMemoryModule(
        crossbar=crossbar,
        input_dacs=bank,
        wta=wta,
        parameters=parameters,
        column_labels=np.array(arrays["column_labels"], dtype=np.int64),
        include_parasitics=bool(header["include_parasitics"]),
        input_variation=float(header["input_variation"]),
        seed=0,
    )
    return EngineSpec(module=module)


# ---------------------------------------------------------------------- #
# Result payloads
# ---------------------------------------------------------------------- #
def result_to_wire(result: BatchRecognitionResult) -> Dict[str, np.ndarray]:
    """Arrays of one ``RESULT`` frame (events packed in ``EVENT_KEYS`` order)."""
    return {
        "winner_column": np.asarray(result.winner_column, dtype=np.int64),
        "winner": np.asarray(result.winner, dtype=np.int64),
        "dom_code": np.asarray(result.dom_code, dtype=np.int64),
        "accepted": np.asarray(result.accepted, dtype=np.uint8),
        "tie": np.asarray(result.tie, dtype=np.uint8),
        "codes": np.asarray(result.codes, dtype=np.int64),
        "column_currents": np.asarray(result.column_currents, dtype=np.float64),
        "static_power": np.asarray(result.static_power, dtype=np.float64),
        "events": np.asarray(
            [[sample.get(key, 0) for key in EVENT_KEYS] for sample in result.events],
            dtype=np.int64,
        ).reshape(len(result.events), len(EVENT_KEYS)),
    }


def result_from_wire(arrays: Dict[str, np.ndarray]) -> BatchRecognitionResult:
    """Rebuild a :class:`BatchRecognitionResult` from ``RESULT`` arrays."""
    return BatchRecognitionResult(
        winner_column=np.array(arrays["winner_column"], dtype=np.int64),
        winner=np.array(arrays["winner"], dtype=np.int64),
        dom_code=np.array(arrays["dom_code"], dtype=np.int64),
        accepted=np.array(arrays["accepted"], dtype=np.uint8).astype(bool),
        tie=np.array(arrays["tie"], dtype=np.uint8).astype(bool),
        codes=np.array(arrays["codes"], dtype=np.int64),
        column_currents=np.array(arrays["column_currents"], dtype=np.float64),
        static_power=np.array(arrays["static_power"], dtype=np.float64),
        events=[
            dict(zip(EVENT_KEYS, (int(value) for value in row)))
            for row in arrays["events"]
        ],
    )


def solution_to_wire(solution: BatchCrossbarSolution) -> Dict[str, np.ndarray]:
    """Arrays of one ``SOLUTION`` frame."""
    return {
        "column_currents": np.asarray(solution.column_currents, dtype=np.float64),
        "supply_current": np.asarray(solution.supply_current, dtype=np.float64),
    }


def solution_from_wire(
    arrays: Dict[str, np.ndarray], delta_v: float
) -> BatchCrossbarSolution:
    """Rebuild a :class:`BatchCrossbarSolution` from ``SOLUTION`` arrays."""
    return BatchCrossbarSolution(
        column_currents=np.array(arrays["column_currents"], dtype=np.float64),
        supply_current=np.array(arrays["supply_current"], dtype=np.float64),
        delta_v=delta_v,
    )
