"""Checkpoints: `save_checkpoint(path, state)` writes the `CheckpointState`
that `load_checkpoint(path)` returns, so a loaded state saved again writes
the file it came from, byte for byte.

The file is the uncompressed ZIP of `.npy` entries that `np.savez` writes,
read with `np.load(path, allow_pickle=False)`. Each entry's CRC-32 makes a
torn or corrupted file fail to load; raw float64 entries make resume
bit-exact; entries are dated 1980-01-01, so one state writes the same bytes;
a write is atomic (temp file, then rename).

Entries (a weight id `wid` is written as `str(wid)`, e.g. `L0.attn_q`):
    meta       one JSON string: version (7), step (global optimizer step),
               booster (1-based index of the booster in progress, 0 = none),
               rng_state, spec (`ModelSpec.structure()`: every ModelSpec
               field but the weights), config (the run's
               BoostConfig fields, or null when no boosting run wrote the
               file, e.g. full fine-tuning), data (hex sha256 of the run's
               dataset, or null), n_arrays (the count of entries below, so a
               damaged ZIP directory that hides some is caught); when
               adapters are live also booster_index and trace (the live
               booster's step losses and per-pair statistics so far, or null)
    w/<wid>    each base weight
    a/<wid>, b/<wid>, a0/<wid>
               A, B and A at birth of each live adapter pair: the three
               fields of its `LoraPair`, whose target is `wid` and whose
               rank is A's second dimension
"""

from __future__ import annotations

import contextlib
import json
import os
import zipfile
from dataclasses import dataclass
from typing import Optional

import numpy as np

from xgblora.lora import AdapterSet, LoraPair
from xgblora.models import ModelSpec, Role, Tensor, WeightId, sort_key

VERSION = 7
LEGACY_MAGIC = b"XGBL"  # versions 1-6, a hand-packed layout: the magic, then the version as a u16
ZIP_MAGIC = b"PK\x03\x04"
# what zipfile and numpy raise on damaged bytes: a bad CRC-32, a cut-short
# entry or npy header, a damaged ZIP directory or damaged header flags
_DAMAGED = (zipfile.BadZipFile, ValueError, EOFError, KeyError, OSError, NotImplementedError, RuntimeError)


class CheckpointError(ValueError):
    pass


class BadMagic(CheckpointError):
    pass


class VersionMismatch(CheckpointError):
    pass


class TruncatedCheckpoint(CheckpointError):
    """The file is torn or corrupted: an entry is cut short, fails its
    CRC-32, or its header does not parse."""


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


def _wid(name: str) -> WeightId:
    layer, _, role = name.partition(".")
    try:
        return WeightId(int(layer[1:]), Role(role))
    except ValueError:
        raise CheckpointError(f"bad weight id {name!r}") from None


def save_checkpoint(path, state: CheckpointState):
    """Write `state`, the record `load_checkpoint` returns, to a temp file
    beside `path`, fsync it and rename it onto `path`, so a failed write
    leaves the previous checkpoint intact."""
    model, adapters = state.model, state.adapters
    meta = dict(version=VERSION, step=state.step, booster=state.booster, rng_state=state.rng_state,
                spec=model.structure(), config=state.config, data=state.data_sha256)
    entries = {f"w/{wid}": model.weights[wid].data for wid in sorted(model.weights, key=sort_key)}
    if adapters is not None:
        adapters.check_live()
        meta.update(booster_index=adapters.booster_index, trace=state.trace)
        for wid in adapters.targets():
            pair = adapters.pairs[wid]
            entries.update({f"a/{wid}": pair.a.data, f"b/{wid}": pair.b.data, f"a0/{wid}": pair.a_init})
    meta["n_arrays"] = len(entries)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, meta=json.dumps(meta, sort_keys=True), **entries)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> CheckpointState:
    with open(path, "rb") as fh:
        head = fh.read(6)
    if head[:4] == LEGACY_MAGIC:
        version = int.from_bytes(head[4:6], "little")
        raise VersionMismatch(f"checkpoint version {version}, supported {VERSION}")
    if head[:4] != ZIP_MAGIC:
        raise BadMagic(f"not a checkpoint: starts with {head[:4]!r}")
    try:
        with np.load(path, allow_pickle=False) as npz:
            entries = {name: npz[name] for name in npz.files}
        meta = json.loads(str(entries.pop("meta")))
    except _DAMAGED as exc:
        raise TruncatedCheckpoint(f"torn or corrupted checkpoint {os.fspath(path)}: {exc}") from exc
    if meta.get("version") != VERSION:
        raise VersionMismatch(f"checkpoint version {meta.get('version')}, supported {VERSION}")
    if len(entries) != meta["n_arrays"]:
        raise TruncatedCheckpoint(f"{os.fspath(path)} lists {len(entries)} of its {meta['n_arrays']} arrays")
    groups = {"w": {}, "a": {}, "b": {}, "a0": {}}
    for name, arr in entries.items():
        prefix, _, wid = name.partition("/")
        if prefix not in groups or arr.dtype != np.float64:
            raise CheckpointError(f"unexpected entry {name!r} of {arr.dtype}")
        groups[prefix][_wid(wid)] = arr
    weights, a, b, a_init = groups.values()
    if not a.keys() == b.keys() == a_init.keys():
        raise CheckpointError("the a/, b/ and a0/ entries name different weights")
    for wid in a:  # A (d, r) and B (r, k) fit their (d, k) weight; A at birth has A's shape
        w, pa, pb = weights.get(wid), a[wid], b[wid]
        if w is None:
            raise CheckpointError(f"a/{wid} adapts a weight with no w/{wid} entry")
        if a_init[wid].shape != pa.shape:
            raise CheckpointError(f"a0/{wid} has shape {a_init[wid].shape}, a/{wid} has {pa.shape}")
        if pa.ndim != 2 or pb.ndim != 2 or pa.shape[1] != pb.shape[0] or (pa.shape[0], pb.shape[1]) != w.shape:
            raise CheckpointError(f"a/{wid} {pa.shape} and b/{wid} {pb.shape} do not fit w/{wid} {w.shape}")
    model = ModelSpec(weights={wid: Tensor(w) for wid, w in weights.items()}, **meta["spec"])
    adapters = None
    if "booster_index" in meta:
        pairs = {
            wid: LoraPair(Tensor(a[wid], requires_grad=True), Tensor(b[wid], requires_grad=True), a_init[wid])
            for wid in a
        }
        adapters = AdapterSet(pairs=pairs, booster_index=meta["booster_index"])
    return CheckpointState(
        model=model, step=meta["step"], booster=meta["booster"], rng_state=meta["rng_state"],
        adapters=adapters, config=meta["config"], data_sha256=meta["data"], trace=meta.get("trace"),
    )
