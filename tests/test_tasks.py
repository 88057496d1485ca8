import numpy as np
import pytest

from xgblora import models as mz
from xgblora.boosting import TrainConfig, full_finetune
from xgblora.tasks import gen_sequence_dataset, gen_teacher_dataset, quadratic_optimum
from xgblora.tensor import Rng


class TestTeacherDataset:
    def test_same_seed_identical(self):
        d1, _ = gen_teacher_dataset("teacher-matrix", [4, 4], n=32, seed=5)
        d2, _ = gen_teacher_dataset("teacher-matrix", [4, 4], n=32, seed=5)
        assert np.array_equal(d1.inputs, d2.inputs)
        assert np.array_equal(d1.targets, d2.targets)

    def test_noiseless_is_realizable(self):
        data, task = gen_teacher_dataset("teacher-mlp", [5, 8, 3], n=64, seed=2)
        teacher_loss = mz.loss_eval(task.teacher, data)
        assert teacher_loss < 1e-20

    def test_full_finetune_drives_loss_down(self):
        data, task = gen_teacher_dataset("teacher-matrix", [4, 4], n=64, seed=7)
        model = task.make_student()
        full_finetune(model, data, TrainConfig(total_steps=600, eta=0.2, batch_size=64, seed=1))
        assert mz.loss_eval(model, data) < 1e-8

    def test_single_example_accepted(self):
        data, task = gen_teacher_dataset("teacher-matrix", [3, 3], n=1, seed=1)
        model = task.make_student()
        full_finetune(model, data, TrainConfig(total_steps=3, eta=0.01, batch_size=1, seed=1))

    def test_zero_delta_teacher_equals_start(self):
        data, task = gen_teacher_dataset("teacher-matrix", [4, 4], n=16, seed=3, delta_scale=0.0)
        assert task.heldout_error(task.make_student()) == 0.0

    def test_noise_level_applied(self):
        noisy, task = gen_teacher_dataset("teacher-matrix", [4, 4], n=512, seed=9, noise=0.5)
        resid = noisy.targets - mz.forward(task.teacher, noisy.inputs).data
        assert abs(resid.std() - 0.5) < 0.05

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            gen_teacher_dataset("teacher-cnn", [4, 4], n=8)


class TestSequenceDataset:
    def test_parity_of_zeros_is_class_zero(self):
        ds = gen_sequence_dataset("parity", seq_len=6, n=100, seed=1)
        zero_rows = np.where((ds.inputs == 0).all(axis=1))[0]
        assert len(zero_rows) > 0
        assert np.all(ds.targets[zero_rows] == 0)

    def test_labels_are_parity(self):
        ds = gen_sequence_dataset("parity", seq_len=8, n=200, seed=4)
        assert np.array_equal(ds.targets, ds.inputs.sum(axis=1) % 2)

    def test_class_balance_within_one(self):
        for n in (100, 101):
            ds = gen_sequence_dataset("parity", seq_len=5, n=n, seed=2)
            ones = int(ds.targets.sum())
            assert abs(ones - (n - ones)) <= 1

    def test_seq_len_bound(self):
        with pytest.raises(ValueError):
            gen_sequence_dataset("parity", seq_len=1, n=10)

    def test_deterministic(self):
        a = gen_sequence_dataset("parity", seq_len=7, n=64, seed=11)
        b = gen_sequence_dataset("parity", seq_len=7, n=64, seed=11)
        assert np.array_equal(a.inputs, b.inputs)

    def test_pinned_digests(self):
        parity = gen_sequence_dataset("parity", seq_len=4, n=256, seed=0)
        assert parity.sha256() == "ed79b44abe46625a124439392fe0416b33c64189415cac1fb4d6c0815f7c2674"


class TestParityCalibration:
    def test_full_finetune_learns_desk_parity(self):
        """The model class can learn the task before any adapter method is
        compared on it (full fine-tuning clears 95% train accuracy)."""
        from xgblora.models import accuracy, build_transformer
        from xgblora.tensor import Rng

        train = gen_sequence_dataset("parity", seq_len=5, n=512, seed=0)
        model = build_transformer(vocab=2, d_model=32, n_layers=2, n_heads=4,
                                  d_ff=64, rng=Rng(1), max_seq=5)
        full_finetune(model, train, TrainConfig(total_steps=2000, eta=0.25, batch_size=64, seed=3))
        assert accuracy(model, train) > 0.95


class TestQuadraticOptimum:
    def test_noiseless_optimum_is_teacher(self):
        data, task = gen_teacher_dataset("teacher-matrix", [5, 3], n=200, seed=6)
        w_opt, loss_star = quadratic_optimum(data)
        w_star = task.teacher.weights[mz.WeightId(1, mz.Role.MLP_DENSE)].data
        assert np.abs(w_opt - w_star).max() < 1e-8
        assert loss_star < 1e-16

    def test_noisy_optimum_beats_teacher_on_train(self):
        data, task = gen_teacher_dataset("teacher-matrix", [5, 3], n=100, seed=6, noise=0.3)
        _, loss_star = quadratic_optimum(data)
        teacher_train_loss = mz.loss_eval(task.teacher, data)
        assert loss_star <= teacher_train_loss + 1e-12
        assert loss_star > 0
