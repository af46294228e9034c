"""Trace persistence and interchange.

Two on-disk formats:

* **Native format** (``.rtrc`` / ``.rtrc.gz``): a compact little-endian
  binary of this library's :class:`~repro.workloads.trace.TraceRecord`
  stream, with a JSON header carrying name/seed/suite metadata.  Use this
  to generate once and re-run many policy sweeps bit-identically.
* **ChampSim importer**: reads the fixed-size input records of the ChampSim
  simulator the paper evaluates on (64-byte ``trace_instr`` structs: ip,
  branch fields, destination/source registers, destination/source memory
  addresses) and converts them into our record stream, computing ``gap``
  from the non-memory instructions between memory operations.
"""

from __future__ import annotations

import gzip
import io
import json
import struct
import zlib
from pathlib import Path
from typing import BinaryIO, Iterable, List, Union

from .trace import Trace, TraceRecord, make_trace

_MAGIC = b"RTRC"
_VERSION = 2
#: after the magic: format version (u16), JSON header length (u32)
_PREAMBLE = struct.Struct("<HI")
#: per record: pc, addr (u64), flags (u8: bit0 write, bit1 dep), gap (u16)
_RECORD = struct.Struct("<QQBH")
#: largest ``gap`` the native format stores (u16)
MAX_GAP = 0xFFFF
_GZIP_MAGIC = b"\x1f\x8b"


# ----------------------------------------------------------------------
# Native format
# ----------------------------------------------------------------------

def _open_read(path: Path) -> BinaryIO:
    with open(path, "rb") as probe:
        magic = probe.read(2)
    if magic == _GZIP_MAGIC:
        return gzip.open(path, "rb")
    return open(path, "rb")


def _unrepresentable(trace: Trace) -> str:
    """Name the first record :data:`_RECORD` cannot pack, and why."""
    for i, rec in enumerate(trace.records):
        try:
            _RECORD.pack(rec.pc, rec.addr, 0, rec.gap)
        except struct.error as exc:
            return f"record {i} {rec!r}: {exc}"
    return "a record does not fit the format"


def encode_trace(trace: Trace, compress: bool) -> bytes:
    """A trace's native-format bytes (gzip'd when ``compress``).

    Compression is level 6 with ``mtime=0``, so one trace always yields
    the same bytes.  Raises :class:`ValueError` when a record does not
    fit the format (``gap`` above :data:`MAX_GAP`, or ``pc``/``addr``
    outside u64): the bytes would decode as another trace.
    """
    pack = _RECORD.pack
    try:
        body = b"".join([
            pack(pc, addr, (1 if is_write else 0) | (2 if dep else 0), gap)
            for pc, addr, is_write, gap, dep in trace.records])
    except struct.error:
        raise ValueError(
            f"cannot save trace {trace.name!r} losslessly: "
            f"{_unrepresentable(trace)}") from None
    header = json.dumps({
        "name": trace.name, "seed": trace.seed, "suite": trace.suite,
        "records": len(trace.records),
    }).encode()
    blob = b"".join([_MAGIC, _PREAMBLE.pack(_VERSION, len(header)),
                     header, body])
    if compress:
        blob = gzip.compress(blob, compresslevel=6, mtime=0)
    return blob


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace in the native binary format (gzip if ``.gz``).

    The bytes come from :func:`encode_trace`, which raises
    :class:`ValueError` for an unrepresentable trace before any file is
    opened.
    """
    path = Path(path)
    path.write_bytes(encode_trace(trace, compress=path.suffix == ".gz"))


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Every way a file can fail to decode (not a native trace, bad or
    truncated gzip stream, short header, truncated record stream, record
    count disagreeing with the header) raises :class:`ValueError`, with
    the underlying exception chained.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[:2] == _GZIP_MAGIC:
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise ValueError(f"{path}: unreadable gzip stream: {exc}") from exc
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a native trace file")
    try:
        version, header_len = _PREAMBLE.unpack_from(raw, len(_MAGIC))
    except struct.error as exc:
        raise ValueError(f"{path}: truncated header") from exc
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported trace version {version}")
    header_start = len(_MAGIC) + _PREAMBLE.size
    body_start = header_start + header_len
    try:
        meta = json.loads(raw[header_start:body_start])
        name, seed, suite = meta["name"], meta["seed"], meta["suite"]
        expected = meta["records"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{path}: malformed header: {exc}") from exc
    body = memoryview(raw)[body_start:]
    if len(body) % _RECORD.size:
        raise ValueError(f"{path}: truncated record stream")
    found = len(body) // _RECORD.size
    if found != expected:
        raise ValueError(
            f"{path}: header promises {expected} records, found {found}")
    records = [TraceRecord(pc, addr, bool(flags & 1), gap, bool(flags & 2))
               for pc, addr, flags, gap in _RECORD.iter_unpack(body)]
    return make_trace(name, records, seed=seed, suite=suite)


# ----------------------------------------------------------------------
# ChampSim importer
# ----------------------------------------------------------------------

#: ChampSim input_instr: u64 ip; u8 is_branch; u8 branch_taken;
#: u8 destination_registers[2]; u8 source_registers[4];
#: u64 destination_memory[2]; u64 source_memory[4]
CHAMPSIM_RECORD = struct.Struct("<QBB2B4B2Q4Q")

NUM_INSTR_DESTINATIONS = 2
NUM_INSTR_SOURCES = 4


def pack_champsim_instruction(ip: int, is_branch: bool = False,
                              branch_taken: bool = False,
                              dest_mem: Iterable[int] = (),
                              src_mem: Iterable[int] = ()) -> bytes:
    """Build one ChampSim input record (used by tests and trace tooling)."""
    dmem = (list(dest_mem) + [0] * NUM_INSTR_DESTINATIONS)[
        :NUM_INSTR_DESTINATIONS]
    smem = (list(src_mem) + [0] * NUM_INSTR_SOURCES)[:NUM_INSTR_SOURCES]
    return CHAMPSIM_RECORD.pack(
        ip, int(is_branch), int(branch_taken),
        0, 0,            # destination registers (unused here)
        0, 0, 0, 0,      # source registers
        *dmem, *smem)


def read_champsim_trace(source: Union[str, Path, bytes, BinaryIO],
                        name: str = "champsim",
                        max_records: int = None) -> Trace:
    """Convert a ChampSim binary instruction trace to a :class:`Trace`.

    Each instruction with memory operands yields one record per distinct
    operand address (reads as loads, writes as stores); instructions
    without memory operands accumulate into the next record's ``gap``.
    """
    if isinstance(source, (str, Path)):
        fh: BinaryIO = _open_read(Path(source))
        close = True
    elif isinstance(source, bytes):
        fh = io.BytesIO(source)
        close = False
    else:
        fh = source
        close = False

    records: List[TraceRecord] = []
    gap = 0
    try:
        while True:
            chunk = fh.read(CHAMPSIM_RECORD.size)
            if not chunk:
                break
            if len(chunk) != CHAMPSIM_RECORD.size:
                raise ValueError("truncated ChampSim record")
            fields = CHAMPSIM_RECORD.unpack(chunk)
            ip = fields[0]
            dmem = fields[8:8 + NUM_INSTR_DESTINATIONS]
            smem = fields[8 + NUM_INSTR_DESTINATIONS:]
            touched = False
            for addr in smem:
                if addr:
                    records.append(TraceRecord(ip, addr, False, gap))
                    gap = 0
                    touched = True
            for addr in dmem:
                if addr:
                    records.append(TraceRecord(ip, addr, True, gap))
                    gap = 0
                    touched = True
            if not touched:
                gap += 1
            if max_records is not None and len(records) >= max_records:
                records = records[:max_records]
                break
    finally:
        if close:
            fh.close()
    return make_trace(name, records, suite="champsim")
