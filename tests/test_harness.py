import json
import os

import numpy as np
import pytest

from xgblora import models as mz
from xgblora.boosting import BoostConfig, BoostRun, ConfigError, boost_step, xgblora_fit
from xgblora.checkpoint import (
    BadMagic,
    CheckpointError,
    CheckpointState,
    TruncatedCheckpoint,
    VersionMismatch,
    load_checkpoint,
    save_checkpoint,
)
from xgblora.cli import main, make_parser
from xgblora.config import RunConfig, parse_config, serialize_config
from xgblora.lora import init_adapter_set, param_count
from xgblora.models import build_mlp, build_transformer
from xgblora.reporting import MetricsWriter, ReportError, emit_report, svg_line_plot
from xgblora.tasks import gen_teacher_dataset
from xgblora.tensor import Rng


class TestConfig:
    def test_round_trip_default(self):
        cfg = RunConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_modified(self):
        cfg = RunConfig(method="lora", eta=0.125, iterations=7, total_steps=None,
                        task="teacher-mlp", dims="4,8,2")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_comments_and_blank_lines(self):
        text = "# hello\n\nmethod=lora  # trailing comment\nseed=9\n"
        cfg = parse_config(text)
        assert cfg.method == "lora"
        assert cfg.seed == 9

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="learning_rate"):
            parse_config("learning_rate=1\n")

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="eta"):
            parse_config("eta=fast\n")
        # none is a value of the three schedule fields only
        for name in ("rank", "eta", "n_examples"):
            with pytest.raises(ConfigError, match=f"^{name}: expected"):
                parse_config(f"{name}=none\n")
        assert parse_config("iterations=none\nsteps_per_booster=none\ntotal_steps=none\n") == RunConfig()

    def test_invalid_method(self):
        with pytest.raises(ConfigError, match="method"):
            parse_config("method=adapters\n")

    @pytest.mark.parametrize("text, name", [("method=x", "method"), ("rank=0", "rank"), ("eta=abc", "eta")])
    def test_one_error_class_for_a_bad_setting(self, text, name):
        """A bad shell field, training field or value all raise ConfigError."""
        with pytest.raises(ConfigError, match=name):
            parse_config(text)


def small_model(seed=4):
    return build_mlp([5, 7, 3], rng=Rng(seed))


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.xgbl"
        save_checkpoint(path, CheckpointState(model, step=17, booster=3, rng_state=0xABCDEF))
        state = load_checkpoint(path)
        # every entry is dated 1980-01-01, so one state always writes the same bytes
        save_checkpoint(tmp_path / "again.xgbl", CheckpointState(model, step=17, booster=3, rng_state=0xABCDEF))
        assert (tmp_path / "again.xgbl").read_bytes() == path.read_bytes()
        assert state.step == 17
        assert state.booster == 3
        assert state.rng_state == 0xABCDEF
        assert set(state.model.weights) == set(model.weights)
        for wid in model.weights:
            assert np.array_equal(state.model.weights[wid].data, model.weights[wid].data)

    def test_forward_identical_after_round_trip(self, tmp_path):
        model = build_transformer(vocab=6, d_model=8, n_layers=2, n_heads=2, d_ff=16, rng=Rng(3))
        path = tmp_path / "t.xgbl"
        save_checkpoint(path, CheckpointState(model, step=0, booster=0, rng_state=0))
        loaded = load_checkpoint(path).model
        ids = np.array([[1, 2, 3, 4]])
        assert np.array_equal(mz.forward(model, ids).data, mz.forward(loaded, ids).data)

    def test_adapters_round_trip(self, tmp_path):
        model = small_model()
        adapters = init_adapter_set(model, mz.list_adaptable_weights(model), r=2, rng=Rng(7), booster_index=4)
        for p in adapters.pairs.values():
            p.b.data = Rng(8).gaussian(p.b.shape)
        path = tmp_path / "a.xgbl"
        save_checkpoint(path, CheckpointState(model, step=0, booster=0, rng_state=0, adapters=adapters))
        state = load_checkpoint(path)
        assert state.adapters is not None
        assert state.adapters.booster_index == 4
        for wid, pair in adapters.pairs.items():
            got = state.adapters.pairs[wid]
            assert np.array_equal(got.a.data, pair.a.data)
            assert np.array_equal(got.b.data, pair.b.data)
            assert np.array_equal(got.a_init, pair.a_init)
            assert got.a.data.shape[1] == pair.a.data.shape[1] == 2

    @pytest.mark.parametrize("entry, field, shape", [
        ("a0/", "a_init", (7, 1)),  # A at birth narrower than A (7, 2)
        ("b/", "b", (2, 4)),  # B one column short of its (7, 5) weight
        ("b/", "b", (3, 5)),  # B's rank is not A's
        ("w/", "w", None),  # no weight under the pair
    ])
    def test_adapter_shapes_checked(self, tmp_path, entry, field, shape):
        """An adapter pair whose A at birth is not A's shape, whose A and B
        do not fit their weight, or that has no weight names the entry
        instead of loading."""
        model = small_model()
        adapters = init_adapter_set(model, mz.list_adaptable_weights(model), r=2, rng=Rng(7))
        wid = adapters.targets()[0]
        pair = adapters.pairs[wid]
        if field == "a_init":
            pair.a_init = np.zeros(shape)
        elif field == "b":
            pair.b.data = np.zeros(shape)
        else:
            del model.weights[wid]
        path = tmp_path / "s.xgbl"
        save_checkpoint(path, CheckpointState(model, step=0, booster=1, rng_state=0, adapters=adapters))
        with pytest.raises(CheckpointError, match=f"{entry}{wid}"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.xgbl"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(BadMagic):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "v.xgbl"
        # versions 1-6 were a hand-packed layout: "XGBL", then the version as a u16.
        # 1: before the run config was stored; 2: before the data digest and live trace;
        # 3: the live trace's pair statistics still carry grad_eff_max;
        # 4: each adapter pair still carries its scale alpha;
        # 5: a dtype byte, and activation, output map and dtype in the spec;
        # 6: no checksum, so a flipped byte loaded as wrong weights
        for version in (99, 1, 2, 3, 4, 5, 6):
            path.write_bytes(b"XGBL" + version.to_bytes(2, "little") + b"\x00" * 64)
            with pytest.raises(VersionMismatch, match=f"version {version},"):
                load_checkpoint(path)
        with open(path, "wb") as fh:
            np.savez(fh, meta=json.dumps({"version": 99}))
        with pytest.raises(VersionMismatch, match="version 99,"):
            load_checkpoint(path)

    def test_loaded_state_saves_the_same_bytes(self, tmp_path):
        """save_checkpoint writes the record load_checkpoint returns: a
        mid-booster BoostRun checkpoint and a full-ft one, loaded and saved
        again, are the same bytes."""
        data, task = gen_teacher_dataset("teacher-matrix", [6, 6], n=64, seed=2)
        cfg = BoostConfig(iterations=4, steps_per_booster=5, rank=2, sample_layers=1,
                          eta=0.4, batch_size=8, seed=13)
        run = BoostRun.start(task.make_student(), data, cfg)
        boost_step(run, stop_after_step=7)
        run.save(tmp_path / "mid.xgbl")
        assert load_checkpoint(tmp_path / "mid.xgbl").trace is not None
        ft = tmp_path / "ft"
        assert main(["train", "--method", "full-ft", "--seed", "5", "--dims", "6,6", "--n-examples", "32",
                     "--eta", "0.4", "--batch-size", "8", "-K", "8", "--out-dir", str(ft)]) == 0
        for original in (tmp_path / "mid.xgbl", ft / "checkpoint.xgbl"):
            save_checkpoint(tmp_path / "again.xgbl", load_checkpoint(original))
            assert (tmp_path / "again.xgbl").read_bytes() == original.read_bytes(), original

    def test_config_round_trip(self, tmp_path):
        path = tmp_path / "c.xgbl"
        save_checkpoint(path, CheckpointState(small_model(), step=0, booster=0, rng_state=0,
                                              config={"eta": 0.1, "policy": "qv", "iterations": 3}))
        assert load_checkpoint(path).config == {"eta": 0.1, "policy": "qv", "iterations": 3}
        save_checkpoint(path, CheckpointState(small_model(), step=0, booster=0, rng_state=0))
        assert load_checkpoint(path).config is None

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import numpy.lib.format as npy_format

        path = tmp_path / "keep.xgbl"
        save_checkpoint(path, CheckpointState(small_model(seed=4), step=3, booster=0, rng_state=0))
        before = path.read_bytes()
        real, calls = npy_format.write_array, []

        def failing(fh, arr, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("disk full")
            real(fh, arr, **kwargs)

        monkeypatch.setattr(npy_format, "write_array", failing)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, CheckpointState(small_model(seed=9), step=4, booster=0, rng_state=0))
        assert path.read_bytes() == before
        state = load_checkpoint(path)
        assert state.step == 3
        ref = small_model(seed=4)
        for wid in ref.weights:
            assert np.array_equal(state.model.weights[wid].data, ref.weights[wid].data)
        assert sorted(os.listdir(tmp_path)) == ["keep.xgbl"]

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "t.xgbl"
        save_checkpoint(path, CheckpointState(small_model(), step=0, booster=0, rng_state=0))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TruncatedCheckpoint):
            load_checkpoint(path)

    def test_flipped_byte_in_a_weight_detected(self, tmp_path):
        """Each entry carries a CRC-32: one flipped bit inside a weight's
        bytes fails the load instead of loading a wrong weight."""
        path = tmp_path / "f.xgbl"
        model = small_model()
        save_checkpoint(path, CheckpointState(model, step=0, booster=0, rng_state=0))
        path.write_bytes(flip_weight_byte(path.read_bytes(), model))
        with pytest.raises(TruncatedCheckpoint, match="torn or corrupted"):
            load_checkpoint(path)


def flip_weight_byte(raw: bytes, model) -> bytes:
    """`raw` with one bit flipped in the middle of the first weight's bytes."""
    w = next(iter(model.weights.values())).data.tobytes()
    at = raw.index(w) + len(w) // 2
    return raw[:at] + bytes([raw[at] ^ 0x10]) + raw[at + 1:]


class TestResume:
    def test_resume_bitwise_equivalence(self, tmp_path):
        """Interrupt mid-booster via checkpoint, resume, compare weights."""
        data, task = gen_teacher_dataset("teacher-matrix", [6, 6], n=64, seed=2)
        cfg = BoostConfig(iterations=4, steps_per_booster=5, rank=2, sample_layers=1,
                          eta=0.4, batch_size=8, seed=13)

        ref = task.make_student()
        xgblora_fit(ref, data, cfg)

        model = task.make_student()
        run = BoostRun.start(model, data, cfg)
        boost_step(run, stop_after_step=7)
        path = tmp_path / "mid.xgbl"
        run.save(path)

        state = load_checkpoint(path)
        resumed = BoostRun.resume(state, data, cfg)
        boost_step(resumed)
        for wid in ref.weights:
            assert np.array_equal(ref.weights[wid].data, state.model.weights[wid].data)

    def test_resume_rejects_a_different_config(self, tmp_path):
        data, task = gen_teacher_dataset("teacher-matrix", [6, 6], n=64, seed=2)
        cfg = BoostConfig(iterations=4, steps_per_booster=5, rank=2, sample_layers=1,
                          eta=0.4, batch_size=8, seed=13)
        run = BoostRun.start(task.make_student(), data, cfg)
        boost_step(run, stop_after_step=7)
        run.save(tmp_path / "mid.xgbl")
        state = load_checkpoint(tmp_path / "mid.xgbl")
        other = BoostConfig(total_steps=20, steps_per_booster=10, rank=2, sample_layers=1,
                            eta=0.4, batch_size=8, seed=13)
        with pytest.raises(ConfigError, match="steps_per_booster=10 \\(checkpoint: 5\\)"):
            BoostRun.resume(state, data, other)
        reseeded = BoostConfig(iterations=4, steps_per_booster=5, rank=2, sample_layers=1,
                               eta=0.4, batch_size=8, seed=14)
        with pytest.raises(ConfigError, match="seed=14"):
            BoostRun.resume(state, data, reseeded)
        save_checkpoint(tmp_path / "bare.xgbl", CheckpointState(
            state.model, step=7, booster=2, rng_state=0, adapters=state.adapters,
            config=state.config, data_sha256=data.sha256()))
        with pytest.raises(ConfigError, match="without its trace"):
            BoostRun.resume(load_checkpoint(tmp_path / "bare.xgbl"), data, cfg)

    def test_resume_rejects_other_data(self, tmp_path):
        data, task = gen_teacher_dataset("teacher-matrix", [6, 6], n=32, seed=2)
        more, _ = gen_teacher_dataset("teacher-matrix", [6, 6], n=64, seed=2)
        cfg = BoostConfig(iterations=4, steps_per_booster=5, rank=2, sample_layers=1,
                          eta=0.4, batch_size=8, seed=13)
        run = BoostRun.start(task.make_student(), data, cfg)
        boost_step(run, stop_after_step=7)
        run.save(tmp_path / "mid.xgbl")
        state = load_checkpoint(tmp_path / "mid.xgbl")
        assert state.data_sha256 == data.sha256() != more.sha256()
        with pytest.raises(ConfigError, match="own data"):
            BoostRun.resume(state, more, cfg)

    def test_resume_restores_the_live_booster_trace(self, tmp_path):
        """A booster that straddles the pause ends with the same step losses
        and per-pair statistics as in the uninterrupted run."""
        data, task = gen_teacher_dataset("teacher-matrix", [6, 6], n=64, seed=2)
        cfg = BoostConfig(iterations=4, steps_per_booster=5, rank=2, sample_layers=1,
                          eta=0.4, batch_size=8, seed=13)
        _, ref = xgblora_fit(task.make_student(), data, cfg)
        run = BoostRun.start(task.make_student(), data, cfg)
        boost_step(run, stop_after_step=3)
        run.save(tmp_path / "mid.xgbl")
        resumed = BoostRun.resume(load_checkpoint(tmp_path / "mid.xgbl"), data, cfg)
        assert resumed.trace.steps == 3
        boost_step(resumed)
        assert resumed.traces == ref


class TestReporting:
    def _write_run(self, tmp_path, run_id, losses):
        with MetricsWriter(os.path.join(tmp_path, f"{run_id}.csv"), run_id, 64) as mw:
            for i, loss in enumerate(losses, start=1):
                mw.write_step(i, i * 8, loss, 16)

    def test_empty_dir_valid_report(self, tmp_path):
        written = emit_report(str(tmp_path))
        assert "report.md" in written
        text = (tmp_path / "report.md").read_text()
        assert "No runs found" in text

    def test_missing_dir_raises_before_writing(self, tmp_path, capsys):
        missing, out = tmp_path / "nope", tmp_path / "out"
        with pytest.raises(ReportError, match="nope"):
            emit_report(str(missing), str(out))
        for argv in (["report", str(missing)], ["report", str(missing), "--out-dir", str(out)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and str(missing) in err
        assert not missing.exists() and not out.exists()

    def test_report_contains_runs(self, tmp_path):
        self._write_run(str(tmp_path), "lora-seed0", [1.0, 0.5, 0.25])
        self._write_run(str(tmp_path), "xgb-seed0", [1.0, 0.4, 0.1])
        emit_report(str(tmp_path))
        text = (tmp_path / "report.md").read_text()
        assert "lora-seed0" in text and "xgb-seed0" in text
        assert (tmp_path / "loss_curves.svg").exists()

    def test_report_byte_deterministic(self, tmp_path):
        self._write_run(str(tmp_path), "a", [2.0, 1.0])
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        emit_report(str(tmp_path), str(out1))
        emit_report(str(tmp_path), str(out2))
        assert (out1 / "report.md").read_bytes() == (out2 / "report.md").read_bytes()
        assert (out1 / "loss_curves.svg").read_bytes() == (out2 / "loss_curves.svg").read_bytes()

    def test_svg_plot_handles_empty(self):
        svg = svg_line_plot({}, "t", "x", "y")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_update_bytes_column_tracks_rank(self, tmp_path):
        model = build_transformer(vocab=5, d_model=16, n_layers=2, n_heads=2, d_ff=32, rng=Rng(1))
        r1 = init_adapter_set(model, mz.list_adaptable_weights(model), r=1, rng=Rng(2))
        r8 = init_adapter_set(model, mz.list_adaptable_weights(model), r=8, rng=Rng(2))
        assert param_count(model, r8)["trainable"] == 8 * param_count(model, r1)["trainable"]


class TestCli:
    def test_unknown_subcommand_exits_2(self, capsys):
        for cmd in ("frobnicate", "gb-demo"):
            with pytest.raises(SystemExit) as exc:
                main([cmd])
            assert exc.value.code == 2, cmd

    def test_unknown_flag_exits_2(self):
        # float64 is the only precision, and parity-seq the only sequence task
        for argv in (["--warp-speed", "9"], ["--precision", "f32"], ["--task", "char-classify"]):
            with pytest.raises(SystemExit) as exc:
                main(["train", "--seed", "1", *argv])
            assert exc.value.code == 2, argv

    def test_probe_writes_where_the_docs_say(self):
        """`probe all` writes to runs/probes, the directory of the committed
        reports, unless --out-dir says otherwise."""
        assert make_parser().parse_args(["probe", "all", "--seed", "0"]).out_dir == "runs/probes"

    def test_seed_mandatory_for_train(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])
        assert exc.value.code == 2

    def test_cost_model_preset_lora(self, capsys):
        assert main(["cost-model", "--preset", "lora"]) == 0
        out = capsys.readouterr().out
        assert "32000" in out
        assert "L*alpha*K + beta" in out

    def test_cost_model_table_values(self, capsys):
        main(["cost-model", "--preset", "xgblora-r1"])
        out = capsys.readouterr().out
        assert "1333.33" in out

    def test_train_and_report_round_trip(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        rc = main([
            "train", "--method", "xgblora", "--seed", "3", "--task", "teacher-matrix",
            "--dims", "6,6", "--n-examples", "32", "-T", "3", "--kappa", "4",
            "--r", "1", "--layers", "1", "--eta", "0.4", "--batch-size", "8",
            "--out-dir", out_dir,
        ])
        assert rc == 0
        assert os.path.exists(os.path.join(out_dir, "metrics.csv"))
        assert os.path.exists(os.path.join(out_dir, "checkpoint.xgbl"))
        assert os.path.exists(os.path.join(out_dir, "run.cfg"))
        assert main(["report", out_dir]) == 0
        assert os.path.exists(os.path.join(out_dir, "report.md"))

    def test_train_invalid_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("rank=0\n")
        rc = main(["train", "--config", str(bad), "--seed", "1"])
        assert rc == 1
        # every run.cfg written while a precision could be chosen has this line
        bad.write_text("precision=f64\n")
        capsys.readouterr()
        rc = main(["train", "--config", str(bad), "--seed", "1", "--out-dir", str(tmp_path / "old")])
        assert rc == 1
        assert "precision" in capsys.readouterr().err
        assert not (tmp_path / "old").exists()
        # a run.cfg written while kappa was the steps-per-booster key
        bad.write_text("kappa=8\n")
        assert main(["train", "--config", str(bad), "--seed", "1", "--out-dir", str(tmp_path / "old")]) == 1
        assert "unknown key 'kappa'" in capsys.readouterr().err
        assert not (tmp_path / "old").exists()
        # a run.cfg written while per-step metrics rows could be asked for
        bad.write_text("verbose_metrics=false\n")
        assert main(["train", "--config", str(bad), "--seed", "1", "--out-dir", str(tmp_path / "old")]) == 1
        assert "unknown key 'verbose_metrics'" in capsys.readouterr().err
        assert not (tmp_path / "old").exists()
        rc = main(["train", "--method", "full-ft", "--batch-size", "0", "--seed", "1",
                   "--out-dir", str(tmp_path / "ft")])
        assert rc == 1
        assert not (tmp_path / "ft").exists()
        assert main(["train", "--method", "full-ft", "-K", "0", "--seed", "1",
                     "--out-dir", str(tmp_path / "ft0")]) == 1
        for flag, value in (("--eta", "nan"), ("--eta", "inf"), ("--lam", "nan")):
            out = tmp_path / f"nonfinite{flag}{value}"
            assert main(["train", flag, value, "--seed", "1", "-K", "16", "--out-dir", str(out)]) == 1
            assert not out.exists()
        # a field the chosen task never reads is refused, not recorded as run
        capsys.readouterr()
        for i, (argv, field) in enumerate([
            (["--seed", "0", "--task", "parity-seq", "--dims", "3,3,3", "--noise", "0.5", "-K", "8",
              "--seq-len", "4", "--n-examples", "16"], "dims"),
            (["--seed", "1", "--task", "teacher-matrix", "--n-layers", "9"], "n_layers"),
            (["--seed", "1", "--method", "full-ft", "--lam", "0.3", "--r", "4", "--policy", "all",
              "--layers", "1"], "rank"),
            (["--seed", "1", "--method", "full-ft", "--layers", "1"], "sample_layers"),
            (["--seed", "1", "--method", "full-ft", "--lam", "0.3"], "lam"),
            (["--seed", "1", "--method", "full-ft", "--policy", "all"], "policy"),
        ]):
            out = tmp_path / f"foreign{i}"
            assert main(["train", *argv, "--out-dir", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {field}:") and "does not read" in err
            assert ("method full-ft" in err) == ("full-ft" in argv)
            assert not out.exists()

    def test_train_divergence_exits_1(self, tmp_path, capsys):
        """A diverged fresh run exits 1 with one named error and no numpy
        warning, and leaves no run.cfg or metrics.csv, nor the --out-dir it
        made. At eta=1e308 every step loss is finite and only the trained
        model's loss is not."""
        import warnings

        common = ["train", "--seed", "5", "--task", "teacher-matrix", "--dims", "6,6",
                  "--n-examples", "32"]
        kept = tmp_path / "kept"
        kept.mkdir()
        for i, (flags, out) in enumerate([
            (["--eta", "1e6", "-T", "4", "--kappa", "5"], tmp_path / "div"),
            (["--eta", "1e6", "--method", "full-ft"], tmp_path / "ft" / "div"),
            (["--eta", "1e6", "-T", "4", "--kappa", "5"], kept),
            (["--eta", "1e308", "-T", "1", "--kappa", "1"], tmp_path / "last"),
            (["--eta", "1e308", "--method", "full-ft", "-K", "1"], tmp_path / "ft" / "last"),
        ]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc = main([*common, *flags, "--out-dir", str(out)])
            err = capsys.readouterr().err
            assert rc == 1, i
            assert "error:" in err and "diverged" in err
            assert "Traceback" not in err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], i
            assert not (out / "run.cfg").exists() and not (out / "metrics.csv").exists()
            assert not (out / "checkpoint.xgbl").exists()
            assert out.exists() == (out == kept), i
        assert not (tmp_path / "ft").exists()

    @pytest.mark.parametrize("flag", [["--resume", "x.xgbl"], ["--stop-after-step", "4"]])
    def test_full_ft_rejects_resume_flags(self, tmp_path, capsys, flag):
        rc = main(["train", "--method", "full-ft", "--seed", "1", "--task", "teacher-matrix",
                   "--dims", "4,4", "-K", "16", "--out-dir", str(tmp_path / "ft"), *flag])
        assert rc == 1
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing.xgbl", "a_directory"])
    def test_train_unreadable_resume_exits_1(self, tmp_path, capsys, target):
        (tmp_path / "a_directory").mkdir()
        path, out = tmp_path / target, tmp_path / "run"
        rc = main(["train", "--seed", "1", "-K", "16", "--out-dir", str(out), "--resume", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and str(path) in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["flipped", "truncated", "v6"])
    def test_train_damaged_resume_exits_1(self, tmp_path, capsys, damage):
        """A checkpoint with a flipped bit inside a weight, one cut short and
        one in the version-6 layout each exit 1 with one error line."""
        base = ["train", *self.SMALL, "-T", "2", "--kappa", "4"]
        part = tmp_path / "part"
        assert main([*base, "--out-dir", str(part), "--stop-after-step", "2"]) == 0
        ckpt = part / "checkpoint.xgbl"
        raw = ckpt.read_bytes()
        damaged = {
            "flipped": lambda: flip_weight_byte(raw, load_checkpoint(ckpt).model),
            "truncated": lambda: raw[: len(raw) // 2],
            "v6": lambda: b"XGBL" + (6).to_bytes(2, "little") + raw[6:],
        }[damage]()
        ckpt.write_bytes(damaged)
        capsys.readouterr()
        out = tmp_path / "resumed"
        assert main([*base, "--out-dir", str(out), "--resume", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert ("version 6," if damage == "v6" else "torn or corrupted") in err
        assert not out.exists()

    def test_train_missing_config_exits_1(self, tmp_path, capsys):
        path, out = tmp_path / "missing.cfg", tmp_path / "run"
        rc = main(["train", "--config", str(path), "--seed", "1", "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and str(path) in err and err.count("\n") == 1
        assert not out.exists()

    def test_default_settings_run(self, tmp_path):
        """The documented default invocation trains out of the box."""
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("ignore")  # sample_layers clamps to the model depth
            rc = main([
                "train", "--method", "xgblora", "--r", "1", "--kappa", "8",
                "--layers", "8", "--seed", "0", "--out-dir", str(tmp_path / "d"),
            ])
        assert rc == 0

    def test_probe_failure_exit_code(self, tmp_path, capsys):
        from xgblora.cli import _probe_outputs
        from xgblora.probes import ProbeReport

        bad = ProbeReport(probe="demo")
        bad.checks["bound_holds"] = False
        assert _probe_outputs(bad, str(tmp_path)) == 3

    def test_metrics_permille_matches_param_count(self, tmp_path):
        from xgblora.models import build_mlp
        from xgblora.reporting import read_metrics_csv

        out_dir = str(tmp_path / "pm")
        main([
            "train", "--method", "xgblora", "--seed", "2", "--task", "teacher-matrix",
            "--dims", "8,8", "--n-examples", "32", "-T", "2", "--kappa", "4",
            "--r", "1", "--layers", "1", "--eta", "0.3", "--batch-size", "8",
            "--out-dir", out_dir,
        ])
        rows = read_metrics_csv(os.path.join(out_dir, "metrics.csv"))
        model = build_mlp([8, 8], rng=Rng(0))
        adapters = init_adapter_set(model, mz.list_adaptable_weights(model, "qv"), 1, Rng(0))
        expected = param_count(model, adapters)["permille"]
        assert float(rows[-1]["trainable_permille"]) == pytest.approx(expected)
        # --layers 2 of 4: a row counts the adapters live at it, not every adaptable layer
        out_dir = str(tmp_path / "parity")
        assert main([
            "train", "--seed", "0", "--task", "parity-seq", "--n-layers", "4", "--seq-len", "4",
            "--n-examples", "16", "--batch-size", "8", "--kappa", "4", "-K", "8",
            "--policy", "all", "--layers", "2", "--eta", "1.0", "--out-dir", out_dir,
        ]) == 0
        model = load_checkpoint(os.path.join(out_dir, "checkpoint.xgbl")).model
        adapters = init_adapter_set(model, mz.list_adaptable_weights(model, "all"), 1, Rng(0))
        every_layer = param_count(model, adapters)["permille"]
        rows = read_metrics_csv(os.path.join(out_dir, "metrics.csv"))
        assert len(rows) == 2
        for row in rows:
            want = 1000 * int(row["update_bytes"]) / (16 * model.total_params())
            assert float(row["trainable_permille"]) == pytest.approx(want, rel=1e-9)
            assert want == pytest.approx(every_layer / 2)

    TASK = [
        "--seed", "5", "--task", "teacher-matrix", "--dims", "6,6", "--n-examples", "32",
        "--eta", "0.4", "--batch-size", "8",
    ]
    SMALL = [*TASK, "--r", "1", "--layers", "1"]

    def test_resume_with_another_kappa_exits_1(self, tmp_path, capsys):
        out = str(tmp_path / "k")
        ckpt = os.path.join(out, "checkpoint.xgbl")
        base = ["train", *self.SMALL, "-K", "32", "--out-dir", out]
        assert main([*base, "--kappa", "8", "--stop-after-step", "20"]) == 0
        before = open(ckpt, "rb").read()
        capsys.readouterr()
        assert main([*base, "--kappa", "16", "--resume", ckpt]) == 1
        assert "steps_per_booster" in capsys.readouterr().err
        assert open(ckpt, "rb").read() == before

    def test_xgblora_resume_from_full_ft_checkpoint_exits_1(self, tmp_path, capsys):
        out = str(tmp_path / "ft")
        assert main(["train", "--method", "full-ft", *self.TASK, "-K", "8", "--out-dir", out]) == 0
        capsys.readouterr()
        rc = main(["train", *self.SMALL, "-K", "8", "--kappa", "4", "--out-dir", str(tmp_path / "x"),
                   "--resume", os.path.join(out, "checkpoint.xgbl")])
        assert rc == 1
        assert "no boosting run" in capsys.readouterr().err

    def test_metrics_appended_on_resume(self, tmp_path):
        """Paused mid-booster and resumed, metrics.csv equals the
        uninterrupted run's in every column but the wall clock."""
        from xgblora.reporting import read_metrics_csv

        def rows(d):
            return [{k: v for k, v in r.items() if k != "wall_ms"}
                    for r in read_metrics_csv(os.path.join(d, "metrics.csv"))]

        common = ["train", *self.SMALL, "-T", "4", "--kappa", "5"]
        full_dir = str(tmp_path / "full")
        assert main([*common, "--out-dir", full_dir]) == 0
        assert len(rows(full_dir)) == 4
        for pause in (3, 7):
            out = str(tmp_path / f"part-{pause}")
            assert main([*common, "--out-dir", out, "--stop-after-step", str(pause)]) == 0
            assert main([*common, "--out-dir", out, "--resume", os.path.join(out, "checkpoint.xgbl")]) == 0
            assert rows(out) == rows(full_dir), pause
            # the resumed run's clock continues from the last row written before the pause
            walls = [float(r["wall_ms"]) for r in read_metrics_csv(os.path.join(out, "metrics.csv"))]
            assert walls == sorted(walls), pause

    def test_metrics_not_repeated_after_torn_resume(self, tmp_path, monkeypatch):
        """A resumed run stopped after its merges but before its final
        checkpoint leaves rows past that checkpoint in metrics.csv; the next
        resume drops them, so each booster keeps one row."""
        from xgblora.reporting import read_metrics_csv

        common = ["train", *self.SMALL, "-T", "4", "--kappa", "5"]
        full, out = str(tmp_path / "full"), str(tmp_path / "torn")
        ckpt = os.path.join(out, "checkpoint.xgbl")
        assert main([*common, "--out-dir", full]) == 0
        assert main([*common, "--out-dir", out, "--stop-after-step", "7"]) == 0

        def interrupted(run, path):
            raise KeyboardInterrupt

        with monkeypatch.context() as m:
            m.setattr(BoostRun, "save", interrupted)
            with pytest.raises(KeyboardInterrupt):
                main([*common, "--out-dir", out, "--resume", ckpt])
        assert [r["iteration"] for r in read_metrics_csv(os.path.join(out, "metrics.csv"))] == list("1234")
        assert main([*common, "--out-dir", out, "--resume", ckpt]) == 0
        rows = read_metrics_csv(os.path.join(out, "metrics.csv"))
        assert [r["iteration"] for r in rows] == list("1234")
        drop_wall = [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]
        assert drop_wall == [{k: v for k, v in r.items() if k != "wall_ms"}
                             for r in read_metrics_csv(os.path.join(full, "metrics.csv"))]
        walls = [float(r["wall_ms"]) for r in rows]
        assert walls == sorted(walls)
        assert not os.path.exists(os.path.join(out, "metrics.csv.tmp"))

    def test_resume_on_other_data_or_model_exits_1(self, tmp_path, capsys):
        out = str(tmp_path / "d")
        ckpt = os.path.join(out, "checkpoint.xgbl")
        base = ["train", *self.SMALL, "-T", "4", "--kappa", "5", "--out-dir", out]
        assert main([*base, "--stop-after-step", "7"]) == 0
        before = open(ckpt, "rb").read()
        capsys.readouterr()
        assert main([*base, "--n-examples", "64", "--resume", ckpt]) == 1
        assert "own data" in capsys.readouterr().err
        assert main([*base, "--dims", "6,4", "--resume", ckpt]) == 1
        assert "own model" in capsys.readouterr().err
        assert open(ckpt, "rb").read() == before

    @pytest.mark.parametrize("method, flags, schedule", [
        ("xgblora", [], (32, 8, 256)),
        ("xgblora", ["-T", "4"], (4, 8, 32)),
        ("xgblora", ["--kappa", "4"], (64, 4, 256)),
        ("xgblora", ["-T", "4", "-K", "64"], (4, 16, 64)),
        ("xgblora", ["-K", "16"], (2, 8, 16)),
        ("lora", ["-T", "4"], (1, 256, 256)),
        ("lora", ["-K", "24"], (1, 24, 24)),
    ])
    def test_schedule_filled_and_recorded(self, tmp_path, method, flags, schedule):
        """kappa=8, then K=256 fill in until two of (T, kappa, K) are known;
        lora reads only K. run.cfg records the schedule that ran."""
        from xgblora.config import load_config

        out = str(tmp_path / "s")
        assert main(["train", *self.SMALL, "--method", method, *flags, "--out-dir", out]) == 0
        cfg = load_config(os.path.join(out, "run.cfg"))
        assert (cfg.iterations, cfg.steps_per_booster, cfg.total_steps) == schedule
        state = load_checkpoint(os.path.join(out, "checkpoint.xgbl"))
        assert (state.config["iterations"], state.config["steps_per_booster"]) == schedule[:2]

    def test_run_cfg_records_the_config_that_ran(self, tmp_path):
        """lora adapts every layer, so a lora run asked for --layers 2 of 4
        records sample_layers=4; an xgblora run samples at most the model's
        depth, so the default --layers 8 on the 1-layer teacher records 1.
        run.cfg and the checkpoint agree."""
        from xgblora.config import load_config

        for i, (argv, depth) in enumerate([
            (["--method", "lora", "--task", "parity-seq", "--n-layers", "4", "--seq-len", "4",
              "--n-examples", "16", "--batch-size", "8", "-K", "4", "--layers", "2"], 4),
            (["-T", "2"], 1),
        ]):
            out = str(tmp_path / f"run{i}")
            assert main(["train", "--seed", "0", *argv, "--out-dir", out]) == 0
            cfg = load_config(os.path.join(out, "run.cfg"))
            config = load_checkpoint(os.path.join(out, "checkpoint.xgbl")).config
            assert cfg.sample_layers == config["sample_layers"] == depth, argv
            assert {k: getattr(cfg, k) for k in config if k != "record_merge_loss"} == {
                k: v for k, v in config.items() if k != "record_merge_loss"}

    def test_full_ft_reads_only_total_steps(self, tmp_path):
        from xgblora.config import load_config

        out = str(tmp_path / "ft")
        assert main(["train", *self.TASK, "--method", "full-ft", "-T", "3", "--out-dir", out]) == 0
        cfg = load_config(os.path.join(out, "run.cfg"))
        assert (cfg.iterations, cfg.steps_per_booster, cfg.total_steps) == (None, None, 256)
        assert load_checkpoint(os.path.join(out, "checkpoint.xgbl")).step == 256

    @pytest.mark.parametrize("argv", [
        ["train", *SMALL, "-K", "100"],
        ["train", *SMALL, "-T", "3", "--kappa", "4", "-K", "16"],
        ["sweep", "rank-iter", "--iterations", "3", "--total-steps", "16", "--seeds", "1"],
        ["sweep", "kappa", "--iterations", "3", "--total-steps", "16"],
    ])
    def test_non_dividing_schedule_exits_1(self, tmp_path, capsys, argv):
        assert main([*argv, "--out-dir", str(tmp_path / "x")]) == 1
        assert "does not divide" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @staticmethod
    def _report(out, probe):
        with open(os.path.join(out, f"{probe}.json"), encoding="utf-8") as fh:
            return json.load(fh)

    @pytest.mark.parametrize("kind, flags, probe, points", [
        ("rank-iter", ["--ranks", "1", "2"], "expressiveness",
         [{"r": 1, "t": 2}, {"r": 1, "t": 1}, {"r": 2, "t": 1}]),
        ("kappa", [], "kappa_sweep", [{"kappa": 4}, {"kappa": 8}]),
    ])
    def test_sweep_writes_report_and_plot(self, tmp_path, capsys, kind, flags, probe, points):
        """rank-iter runs one boosted rank-1 arm per T, then one T=1 arm per
        rank not yet in the grid; kappa runs kappa = K/T per T. Each writes
        csv, json and svg, and exits 3 exactly when a check fails."""
        out = str(tmp_path / kind)
        rc = main(["sweep", kind, "--total-steps", "8", "--iterations", "2", "1", "--seeds", "1",
                   *flags, "--out-dir", out])
        assert sorted(os.listdir(out)) == [f"{probe}.{ext}" for ext in ("csv", "json", "svg")]
        report = self._report(out, probe)
        assert [p["params"] for p in report["points"]] == points
        assert rc == (0 if report["passed"] else 3)
        assert (tmp_path / kind / f"{probe}.svg").read_text(encoding="utf-8").startswith("<svg")

    @pytest.mark.parametrize("argv, flag", [
        (["probe", "theorem1", "--seed", "0", "--seeds", "0"], "--seeds"),
        (["probe", "all", "--seed", "0", "--seeds", "-1"], "--seeds"),
        (["sweep", "rank-iter", "--seeds", "0"], "--seeds"),
        (["sweep", "kappa", "--seeds", "0"], "--seeds"),
        (["probe", "lemma2", "--seed", "0", "--runs", "0"], "--runs"),
        (["probe", "lemma2", "--seed", "0", "--runs", "8"], "--runs"),
        (["probe", "lemma2", "--seed", "0", "--runs", "17"], "--runs"),
    ])
    def test_probe_and_sweep_reject_unusable_counts(self, tmp_path, capsys, argv, flag):
        """No replicate, or a lemma2 booster count that is not a positive
        multiple of its 9 rank x kappa configs, exits 1 naming the flag
        before anything is trained or written."""
        out = tmp_path / "x"
        assert main([*argv, "--out-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} must be >=") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not out.exists()

    def test_sweep_kappa_rejects_ranks(self, tmp_path, capsys):
        assert main(["sweep", "kappa", "--ranks", "2", "--out-dir", str(tmp_path / "k")]) == 1
        assert "--ranks" in capsys.readouterr().err
        assert not (tmp_path / "k").exists()

    def test_probe_all_writes_five_reports(self, tmp_path, capsys):
        from xgblora.cli import PROBES

        out = str(tmp_path / "all")
        rc = main(["probe", "all", "--seed", "0", "--seeds", "1", "--runs", "9", "--out-dir", out])
        reports = ("gradient_approx", "update_norm", "lipschitz", "convergence", "expressiveness")
        assert sorted(os.listdir(out)) == sorted(f"{r}.{ext}" for r in reports for ext in ("csv", "json"))
        assert rc == max(0 if self._report(out, r)["passed"] else 3 for r in reports)
        printed = capsys.readouterr().out
        assert [line for line in printed.splitlines() if line.startswith("== ")] == [
            f"== probe {which} ==" for which in PROBES]

    def test_cli_resume_matches_straight_run(self, tmp_path):
        common = [
            "--method", "xgblora", "--seed", "5", "--task", "teacher-matrix",
            "--dims", "6,6", "--n-examples", "32", "-T", "4", "--kappa", "5",
            "--r", "2", "--layers", "1", "--eta", "0.4", "--batch-size", "8",
        ]
        full_dir = str(tmp_path / "full")
        assert main(["train", *common, "--out-dir", full_dir]) == 0
        part_dir = str(tmp_path / "part")
        assert main(["train", *common, "--out-dir", part_dir, "--stop-after-step", "7"]) == 0
        resumed_dir = str(tmp_path / "resumed")
        assert main([
            "train", *common, "--out-dir", resumed_dir,
            "--resume", os.path.join(part_dir, "checkpoint.xgbl"),
        ]) == 0
        a = load_checkpoint(os.path.join(full_dir, "checkpoint.xgbl")).model
        b = load_checkpoint(os.path.join(resumed_dir, "checkpoint.xgbl")).model
        for wid in a.weights:
            assert np.array_equal(a.weights[wid].data, b.weights[wid].data)
