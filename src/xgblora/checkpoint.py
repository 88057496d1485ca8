"""Binary checkpoints: magic "XGBL", explicit version, little-endian float64
blocks keyed by weight id, optional live adapter set with its booster's
trace, PRNG state, step counter, run config and dataset digest. Raw byte
storage of the weight arrays makes save/load/resume bit-exact; a write is
atomic (temp file, then rename).

Layout (all integers little-endian):
    magic   4s   "XGBL"
    version u16  (currently 6; earlier versions are rejected. Version 5
                 also stored a dtype byte after the version, the activation,
                 output map and dtype in the spec, and b_update_norm in the
                 live trace's pair statistics, all dropped in 6)
    step    u64  global optimizer step
    booster u32  1-based index of the booster in progress (0 = none)
    rng     u64  generator state
    spec    u32 length + UTF-8 JSON (model structure)
    config  u32 length + UTF-8 JSON (the run's BoostConfig fields, or null
            when no boosting run wrote the file, e.g. full fine-tuning)
    data    u32 length + UTF-8 JSON (hex sha256 of the run's dataset, or null)
    n_weights u32, then per weight:
        layer u16, role u8, ndim u8, dims u32 each, raw <f8 bytes
    has_adapters u8; if 1:
        booster_index u32, n_pairs u32, then per pair:
            layer u16, role u8, rank u32,
            A block (ndim/dims/raw), B block, A-init block
        trace u32 length + UTF-8 JSON (the live booster's step losses and
            per-pair statistics so far, or null)
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from xgblora.lora import AdapterSet, LoraPair
from xgblora.models import ModelSpec, Role, Tensor, WeightId, sort_key

MAGIC = b"XGBL"
VERSION = 6
_LE_F64 = "<f8"

_ROLE_CODES = {role: i for i, role in enumerate(Role)}
_CODE_ROLES = {i: role for role, i in _ROLE_CODES.items()}


class CheckpointError(ValueError):
    pass


class BadMagic(CheckpointError):
    pass


class VersionMismatch(CheckpointError):
    pass


class TruncatedCheckpoint(CheckpointError):
    pass


@dataclass
class CheckpointState:
    model: ModelSpec
    step: int
    booster: int
    rng_state: int
    adapters: Optional[AdapterSet] = None
    config: Optional[dict] = None  # BoostConfig fields of the run, None if not a boosting run
    data_sha256: Optional[str] = None  # digest of the run's dataset
    trace: Optional[dict] = None  # the live booster's BoosterTrace.saved()


def _write(fh, fmt, *values):
    fh.write(struct.pack("<" + fmt, *values))


def _read(fh, fmt):
    size = struct.calcsize("<" + fmt)
    buf = fh.read(size)
    if len(buf) != size:
        raise TruncatedCheckpoint(f"expected {size} bytes, got {len(buf)}")
    return struct.unpack("<" + fmt, buf)


def _write_array(fh, arr: np.ndarray):
    _write(fh, "B", arr.ndim)
    for d in arr.shape:
        _write(fh, "I", d)
    fh.write(np.ascontiguousarray(arr, dtype=_LE_F64).tobytes())


def _read_array(fh) -> np.ndarray:
    (ndim,) = _read(fh, "B")
    shape = tuple(_read(fh, "I")[0] for _ in range(ndim))
    count = int(np.prod(shape)) if shape else 1
    nbytes = count * 8
    buf = fh.read(nbytes)
    if len(buf) != nbytes:
        raise TruncatedCheckpoint(f"weight block truncated: wanted {nbytes}, got {len(buf)}")
    return np.frombuffer(buf, dtype=_LE_F64).astype(np.float64).reshape(shape)


def _write_wid(fh, wid: WeightId):
    _write(fh, "HB", wid.layer, _ROLE_CODES[wid.role])


def _read_wid(fh) -> WeightId:
    layer, code = _read(fh, "HB")
    if code not in _CODE_ROLES:
        raise CheckpointError(f"unknown role code {code}")
    return WeightId(layer, _CODE_ROLES[code])


def _write_json(fh, value):
    raw = json.dumps(value, sort_keys=True).encode("utf-8")
    _write(fh, "I", len(raw))
    fh.write(raw)


def _read_json(fh, what: str):
    (length,) = _read(fh, "I")
    raw = fh.read(length)
    if len(raw) != length:
        raise TruncatedCheckpoint(f"{what} block truncated")
    return json.loads(raw.decode("utf-8"))


def save_checkpoint(path, model: ModelSpec, step: int = 0, booster: int = 0,
                    rng_state: int = 0, adapters: Optional[AdapterSet] = None,
                    config: Optional[dict] = None, data_sha256: Optional[str] = None,
                    trace: Optional[dict] = None):
    """Write a temp file beside `path`, fsync it and rename it onto `path`,
    so a failed write leaves the previous checkpoint intact."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            _write_body(fh, model, step, booster, rng_state, adapters, config, data_sha256, trace)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _write_body(fh, model, step, booster, rng_state, adapters, config, data_sha256, trace):
    fh.write(MAGIC)
    _write(fh, "H", VERSION)
    _write(fh, "Q", step)
    _write(fh, "I", booster)
    _write(fh, "Q", rng_state)
    _write_json(fh, model.structure())
    _write_json(fh, config)
    _write_json(fh, data_sha256)
    wids = sorted(model.weights, key=sort_key)
    _write(fh, "I", len(wids))
    for wid in wids:
        _write_wid(fh, wid)
        _write_array(fh, model.weights[wid].data)
    if adapters is None:
        _write(fh, "B", 0)
        return
    adapters.check_live()
    _write(fh, "B", 1)
    _write(fh, "I", adapters.booster_index)
    targets = adapters.targets()
    _write(fh, "I", len(targets))
    for wid in targets:
        pair = adapters.pairs[wid]
        _write_wid(fh, wid)
        _write(fh, "I", pair.r)
        _write_array(fh, pair.a.data)
        _write_array(fh, pair.b.data)
        _write_array(fh, pair.a_init)
    _write_json(fh, trace)


def load_checkpoint(path) -> CheckpointState:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if len(magic) < 4:
            raise TruncatedCheckpoint("file shorter than magic")
        if magic != MAGIC:
            raise BadMagic(f"bad magic {magic!r}")
        (version,) = _read(fh, "H")
        if version != VERSION:
            raise VersionMismatch(f"checkpoint version {version}, supported {VERSION}")
        (step,) = _read(fh, "Q")
        (booster,) = _read(fh, "I")
        (rng_state,) = _read(fh, "Q")
        structure = _read_json(fh, "spec")
        config = _read_json(fh, "config")
        data_sha256 = _read_json(fh, "data")
        (n_weights,) = _read(fh, "I")
        weights = {}
        for _ in range(n_weights):
            wid = _read_wid(fh)
            weights[wid] = Tensor(_read_array(fh))
        model = ModelSpec.from_structure(structure, weights)

        (has_adapters,) = _read(fh, "B")
        adapters = trace = None
        if has_adapters:
            (booster_index,) = _read(fh, "I")
            (n_pairs,) = _read(fh, "I")
            pairs = {}
            for _ in range(n_pairs):
                wid = _read_wid(fh)
                (rank,) = _read(fh, "I")
                a, b, a_init = _read_array(fh), _read_array(fh), _read_array(fh)
                pairs[wid] = LoraPair(
                    target=wid,
                    a=Tensor(a, requires_grad=True),
                    b=Tensor(b, requires_grad=True),
                    r=rank,
                    _a_init=a_init,
                )
            adapters = AdapterSet(pairs=pairs, booster_index=booster_index)
            trace = _read_json(fh, "trace")
        return CheckpointState(
            model=model, step=step, booster=booster, rng_state=rng_state, adapters=adapters,
            config=config, data_sha256=data_sha256, trace=trace,
        )
