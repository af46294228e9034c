"""Trace persistence (native format) and the ChampSim importer."""

import gzip
import json
import struct
import zlib

import pytest

from repro.workloads import spec_trace
from repro.workloads.io import (
    CHAMPSIM_RECORD,
    load_trace,
    pack_champsim_instruction,
    read_champsim_trace,
    save_trace,
)
from repro.workloads.trace import TraceRecord, make_trace


# ----------------------------------------------------------------------
# Native format
# ----------------------------------------------------------------------

def test_native_roundtrip(tmp_path):
    trace = spec_trace("429.mcf", n_records=700, seed=4)
    path = tmp_path / "mcf.rtrc"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.records == trace.records
    assert loaded.name == trace.name
    assert loaded.seed == trace.seed
    assert loaded.suite == trace.suite


def test_native_roundtrip_gzip(tmp_path):
    trace = spec_trace("470.lbm", n_records=500, seed=1)
    path = tmp_path / "lbm.rtrc.gz"
    save_trace(trace, path)
    raw = path.read_bytes()
    assert raw[:2] == b"\x1f\x8b"      # actually gzip on disk
    assert load_trace(path).records == trace.records


def test_native_preserves_dep_and_write_flags(tmp_path):
    records = [
        TraceRecord(pc=1, addr=64, is_write=True, gap=3, dep=False),
        TraceRecord(pc=2, addr=128, is_write=False, gap=0, dep=True),
    ]
    trace = make_trace("flags", records)
    path = tmp_path / "flags.rtrc"
    save_trace(trace, path)
    assert load_trace(path).records == records


def test_native_rejects_garbage(tmp_path):
    path = tmp_path / "bad.rtrc"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="not a native trace"):
        load_trace(path)


def test_native_detects_truncation(tmp_path):
    trace = spec_trace("429.mcf", n_records=50, seed=4)
    path = tmp_path / "t.rtrc"
    save_trace(trace, path)
    data = path.read_bytes()
    path.write_bytes(data[:-7])
    with pytest.raises(ValueError, match="truncated|promises"):
        load_trace(path)


@pytest.mark.parametrize("bad, match", [
    (TraceRecord(pc=2, addr=128, is_write=False, gap=70000), "gap=70000"),
    (TraceRecord(pc=2, addr=1 << 64, is_write=True, gap=0), "addr="),
])
def test_native_refuses_unrepresentable_record(tmp_path, bad, match):
    """A value outside the record's u16/u64 fields raises, naming the
    record, instead of reloading as a different trace."""
    trace = make_trace("wide", [TraceRecord(1, 64, False, 3), bad])
    path = tmp_path / "wide.rtrc.gz"
    with pytest.raises(ValueError, match=rf"record 1 .*{match}"):
        save_trace(trace, path)
    assert not path.exists()


def test_native_gzip_bytes_are_deterministic(tmp_path):
    trace = spec_trace("429.mcf", n_records=300, seed=2)
    first, second = tmp_path / "a.rtrc.gz", tmp_path / "b.rtrc.gz"
    save_trace(trace, first)
    save_trace(trace, second)
    assert first.read_bytes() == second.read_bytes()


def test_native_loads_streamed_level9_gzip(tmp_path):
    """Files written record by record through ``gzip.open`` at the
    default level 9 (the earlier writer) still load."""
    trace = spec_trace("470.lbm", n_records=200, seed=6)
    header = json.dumps({"name": trace.name, "seed": trace.seed,
                         "suite": trace.suite,
                         "records": len(trace.records)}).encode()
    path = tmp_path / "streamed.rtrc.gz"
    with gzip.open(path, "wb") as fh:
        fh.write(b"RTRC")
        fh.write(struct.pack("<HI", 2, len(header)))
        fh.write(header)
        for rec in trace.records:
            flags = (1 if rec.is_write else 0) | (2 if rec.dep else 0)
            fh.write(struct.pack("<QQBH", rec.pc, rec.addr, flags, rec.gap))
    loaded = load_trace(path)
    assert loaded.records == trace.records
    assert (loaded.name, loaded.seed, loaded.suite) == \
        (trace.name, trace.seed, trace.suite)


@pytest.mark.parametrize("damage", ["flip", "truncate"])
def test_native_gzip_damage_raises_value_error(tmp_path, damage):
    trace = spec_trace("429.mcf", n_records=300, seed=4)
    path = tmp_path / "t.rtrc.gz"
    save_trace(trace, path)
    data = bytearray(path.read_bytes())
    if damage == "flip":
        mid = len(data) // 2
        data[mid:mid + 20] = bytes(b ^ 0xFF for b in data[mid:mid + 20])
    else:
        del data[len(data) // 2:]
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="unreadable gzip") as info:
        load_trace(path)
    assert isinstance(info.value.__cause__, (OSError, EOFError, zlib.error))


def test_native_header_promises_more_records(tmp_path):
    trace = spec_trace("429.mcf", n_records=40, seed=4)
    path = tmp_path / "t.rtrc"
    save_trace(trace, path)
    data = path.read_bytes()
    path.write_bytes(data[:-struct.calcsize("<QQBH")])   # drop one record
    with pytest.raises(ValueError, match="promises 40 records, found 39"):
        load_trace(path)


# ----------------------------------------------------------------------
# ChampSim importer
# ----------------------------------------------------------------------

def test_champsim_record_is_64_bytes():
    assert CHAMPSIM_RECORD.size == 64
    assert len(pack_champsim_instruction(0x400000)) == 64


def test_champsim_loads_and_stores_extracted():
    blob = b"".join([
        pack_champsim_instruction(0x400000),                 # no memory
        pack_champsim_instruction(0x400004, src_mem=[0x1000]),
        pack_champsim_instruction(0x400008),                 # no memory
        pack_champsim_instruction(0x40000C),                 # no memory
        pack_champsim_instruction(0x400010, dest_mem=[0x2000]),
    ])
    trace = read_champsim_trace(blob, name="t")
    assert len(trace.records) == 2
    load, store = trace.records
    assert (load.pc, load.addr, load.is_write, load.gap) == \
        (0x400004, 0x1000, False, 1)
    assert (store.pc, store.addr, store.is_write, store.gap) == \
        (0x400010, 0x2000, True, 2)


def test_champsim_multi_operand_instruction():
    blob = pack_champsim_instruction(
        0x10, src_mem=[0xA0, 0xB0], dest_mem=[0xC0])
    trace = read_champsim_trace(blob)
    assert [(r.addr, r.is_write) for r in trace.records] == [
        (0xA0, False), (0xB0, False), (0xC0, True)]


def test_champsim_max_records_cap():
    blob = b"".join(
        pack_champsim_instruction(0x10 + i, src_mem=[0x100 + 64 * i])
        for i in range(10))
    trace = read_champsim_trace(blob, max_records=4)
    assert len(trace.records) == 4


def test_champsim_truncated_stream_rejected():
    blob = pack_champsim_instruction(0x10, src_mem=[0x100])[:-3]
    with pytest.raises(ValueError, match="truncated"):
        read_champsim_trace(blob)


def test_champsim_from_file_and_gzip(tmp_path):
    blob = pack_champsim_instruction(0x20, src_mem=[0x40])
    plain = tmp_path / "trace.champsim"
    plain.write_bytes(blob)
    assert len(read_champsim_trace(plain).records) == 1
    gz = tmp_path / "trace.champsim.gz"
    gz.write_bytes(gzip.compress(blob))
    assert len(read_champsim_trace(gz).records) == 1


def test_champsim_trace_runs_in_simulator():
    blob = b"".join(
        pack_champsim_instruction(0x400000 + 4 * (i % 8),
                                  src_mem=[0x1000 + 64 * (i % 50)])
        for i in range(800))
    trace = read_champsim_trace(blob, name="imported")
    from repro.sim import SystemConfig, simulate
    res = simulate([trace.records], cfg=SystemConfig.tiny(1),
                   llc_policy="care")
    assert res.ipc[0] > 0
