"""Golden weight digests: the sha256 of the final weights of five canonical
fits, recorded in golden_weights.json with the numpy and BLAS build that
produced them. A change that moves a weight bit fails here and shows up as
a diff to that file once it is rewritten with

    PYTHONPATH=src python tests/test_golden.py --write

On another numpy or BLAS build the digests may differ without any change to
the code, so the test skips and names both builds.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from xgblora import BoostConfig, Rng, build_transformer, gen_sequence_dataset, xgblora_fit
from xgblora.boosting import TrainConfig, full_finetune, lora_config
from xgblora.checkpoint import load_checkpoint
from xgblora.cli import main
from xgblora.models import sort_key
from xgblora.tasks import gen_teacher_dataset

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_weights.json")


def numpy_build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
    }


def weights_sha256(model) -> str:
    h = hashlib.sha256()
    for wid in sorted(model.weights, key=sort_key):
        h.update(model.weights[wid].data.tobytes())
    return h.hexdigest()


def parity_fit(tmp_path):
    """The fit of test_boosting's PARITY_FIT_DIGEST script."""
    data = gen_sequence_dataset("parity", seq_len=4, n=128, seed=0)
    model = build_transformer(vocab=2, d_model=32, n_layers=4, n_heads=4, d_ff=64, rng=Rng(1),
                              max_seq=4)
    cfg = BoostConfig(iterations=2, steps_per_booster=16, rank=1, sample_layers=2, policy="all",
                      eta=1.0, batch_size=64, seed=0)
    return xgblora_fit(model, data, cfg)[0]


def teacher_fit(tmp_path):
    """8 boosters of 8 steps on the 16x16 rotation teacher."""
    data, task = gen_teacher_dataset("teacher-matrix", [16, 16], n=128, seed=0,
                                     delta_kind="rotation", delta_scale=4.0)
    cfg = BoostConfig(iterations=8, steps_per_booster=8, rank=1, sample_layers=1, eta=5.0,
                      batch_size=128, seed=0)
    return xgblora_fit(task.make_student(), data, cfg)[0]


def lora_fit(tmp_path):
    data, task = gen_teacher_dataset("teacher-mlp", [6, 10, 4], n=64, seed=1)
    model = task.make_student()
    return xgblora_fit(model, data, lora_config(model, 32, rank=2, eta=0.05, batch_size=16,
                                                seed=2))[0]


def full_ft(tmp_path):
    data, task = gen_teacher_dataset("teacher-mlp", [6, 12, 4], n=128, seed=3)
    return full_finetune(task.make_student(), data,
                         TrainConfig(total_steps=64, eta=0.05, batch_size=16, seed=4))[0]


def cli_paused_and_resumed(tmp_path):
    """A CLI parity run paused mid-booster at step 3 and on a booster
    boundary at step 8, each time resumed from its checkpoint."""
    out = str(tmp_path / "cli")
    ckpt = os.path.join(out, "checkpoint.xgbl")
    common = ["train", "--seed", "0", "--task", "parity-seq", "--n-examples", "64",
              "--seq-len", "4", "--n-layers", "2", "-T", "4", "--kappa", "4", "--eta", "0.5",
              "--batch-size", "16", "--out-dir", out]
    assert main([*common, "--stop-after-step", "3"]) == 0
    assert main([*common, "--stop-after-step", "8", "--resume", ckpt]) == 0
    assert main([*common, "--resume", ckpt]) == 0
    return load_checkpoint(ckpt).model


FITS = {f.__name__: f for f in (parity_fit, teacher_fit, lora_fit, full_ft, cli_paused_and_resumed)}


@pytest.mark.parametrize("name", sorted(FITS))
def test_final_weights_match_golden_digest(name, tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    ours = numpy_build()
    if ours != golden["build"]:
        pytest.skip(f"digests recorded on {golden['build']}, this is {ours}")
    assert weights_sha256(FITS[name](tmp_path)) == golden["digests"][name]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        digests = {name: weights_sha256(fit(Path(tmp))) for name, fit in sorted(FITS.items())}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"build": numpy_build(), "digests": digests}, fh, indent=2)
        fh.write("\n")
