"""Optimizer transitions against hand-recomputed scalar oracles."""

import math

import numpy as np
import pytest

from dessim.optim import OptimizerConfig, dense_step, init_dense_state, step


def slots_for(cfg, rows, dim, dtype=np.float64):
    return {
        name: np.zeros((rows, width), dtype=dtype)
        for name, width in cfg.slot_widths(dim).items()
    }


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            OptimizerConfig("sgd")

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            OptimizerConfig("adagrad", lr=0.0)

    def test_bad_moment_decay(self):
        with pytest.raises(ValueError):
            OptimizerConfig("adam", beta1=1.0)

    def test_ftrl_needs_positive_alpha(self):
        with pytest.raises(ValueError):
            OptimizerConfig("ftrl", ftrl_alpha=0.0)

    def test_slot_layouts(self):
        assert OptimizerConfig("ftrl").slot_widths(4) == {"z": 4, "n": 4}
        assert OptimizerConfig("adagrad").slot_widths(4) == {"acc": 4}
        assert OptimizerConfig("adam").slot_widths(4) == {"m": 4, "v": 4, "t": 1}

    def test_config_round_trip(self):
        cfg = OptimizerConfig("ftrl", ftrl_alpha=0.1, ftrl_beta=2.0, l1=0.5, l2=0.25)
        assert OptimizerConfig.from_config(cfg.to_config()) == cfg

    @pytest.mark.parametrize("kind,lr", [("ftrl", 0.01), ("adagrad", 0.05), ("adam", 0.001)])
    def test_default_lr_is_the_kind_s(self, kind, lr):
        assert OptimizerConfig.from_config({"kind": kind}).lr == lr
        assert OptimizerConfig(kind).lr == lr
        with pytest.raises(ValueError, match=r"OptimizerConfig\.lr: expected float, got NoneType"):
            OptimizerConfig.from_config({"kind": kind, "lr": None})

    def test_config_takes_an_int_for_a_float(self):
        assert OptimizerConfig.from_config({"kind": "adam", "lr": 1}).lr == 1
        with pytest.raises(ValueError, match=r"OptimizerConfig\.lr: expected float, got bool"):
            OptimizerConfig.from_config({"kind": "adam", "lr": True})


class TestAdaGrad:
    def test_zero_gradient_leaves_weight_unchanged(self):
        cfg = OptimizerConfig("adagrad")
        w = np.array([[0.5, -0.25]], dtype=np.float32)
        new_w, new_slots = step(cfg, w, slots_for(cfg, 1, 2, np.float32),
                                np.zeros((1, 2), np.float32))
        assert np.array_equal(new_w, w)
        assert np.array_equal(new_slots["acc"], np.zeros((1, 2), np.float32))

    def test_scalar_recompute(self):
        cfg = OptimizerConfig("adagrad", lr=0.05, eps=1e-8)
        w = np.array([[1.0]], dtype=np.float64)
        g = np.array([[0.3]], dtype=np.float64)
        new_w, new_slots = step(cfg, w, slots_for(cfg, 1, 1), g)
        acc = 0.3 * 0.3
        want = 1.0 - 0.05 * 0.3 / (math.sqrt(acc) + 1e-8)
        assert abs(float(new_w[0, 0]) - want) < 1e-15
        assert abs(float(new_slots["acc"][0, 0]) - acc) < 1e-18

    def test_accumulator_grows_monotonically(self):
        cfg = OptimizerConfig("adagrad")
        w = np.zeros((1, 1))
        slots = slots_for(cfg, 1, 1)
        prev = 0.0
        for g in (0.5, -0.2, 0.9):
            w, slots = step(cfg, w, slots, np.array([[g]]))
            assert slots["acc"][0, 0] >= prev
            prev = slots["acc"][0, 0]


class TestFtrl:
    def test_large_l1_drives_weight_to_zero(self):
        cfg = OptimizerConfig("ftrl", l1=100.0)
        w = np.array([[0.7]], dtype=np.float64)
        new_w, _ = step(cfg, w, slots_for(cfg, 1, 1), np.array([[0.01]]))
        assert new_w[0, 0] == 0.0

    def test_scalar_recompute_active_path(self):
        alpha, beta, l1, l2 = 0.05, 1.0, 1e-4, 1e-4
        cfg = OptimizerConfig("ftrl", ftrl_alpha=alpha, ftrl_beta=beta, l1=l1, l2=l2)
        w0, g = 0.0, 0.3
        new_w, new_slots = step(
            cfg, np.array([[w0]]), slots_for(cfg, 1, 1), np.array([[g]])
        )
        sigma = (math.sqrt(g * g) - 0.0) / alpha
        z = g - sigma * w0
        n = g * g
        want = -(z - math.copysign(l1, z)) / ((beta + math.sqrt(n)) / alpha + l2)
        assert abs(float(new_w[0, 0]) - want) < 1e-15
        assert abs(float(new_slots["z"][0, 0]) - z) < 1e-15
        assert abs(float(new_slots["n"][0, 0]) - n) < 1e-18

    def test_two_steps_track_reference_sequence(self):
        alpha, beta, l1, l2 = 0.05, 1.0, 1e-4, 1e-4
        cfg = OptimizerConfig("ftrl")
        w = np.array([[0.0]])
        slots = slots_for(cfg, 1, 1)
        z = n = 0.0
        ref_w = 0.0
        for g in (0.3, -0.6):
            w, slots = step(cfg, w, slots, np.array([[g]]))
            sigma = (math.sqrt(n + g * g) - math.sqrt(n)) / alpha
            z += g - sigma * ref_w
            n += g * g
            if abs(z) <= l1:
                ref_w = 0.0
            else:
                ref_w = -(z - math.copysign(l1, z)) / ((beta + math.sqrt(n)) / alpha + l2)
            assert abs(float(w[0, 0]) - ref_w) < 1e-14


class TestAdam:
    def test_single_step_hand_recompute(self):
        cfg = OptimizerConfig("adam", lr=0.001)
        w = np.array([[0.5]], dtype=np.float64)
        new_w, new_slots = step(cfg, w, slots_for(cfg, 1, 1), np.array([[1.0]]))
        # bias correction makes the first update almost exactly -lr
        m_hat = (0.1 * 1.0) / (1 - 0.9)
        v_hat = (0.001 * 1.0) / (1 - 0.999)
        want = 0.5 - 0.001 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert abs(float(new_w[0, 0]) - want) < 1e-15
        assert abs((float(new_w[0, 0]) - 0.5) + 0.001) < 1e-10
        assert new_slots["t"][0, 0] == 1.0

    def test_three_steps_track_reference_sequence(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        cfg = OptimizerConfig("adam", lr=lr)
        w = np.array([[1.0]])
        slots = slots_for(cfg, 1, 1)
        m = v = 0.0
        ref_w = 1.0
        for t, g in enumerate((0.5, -0.1, 0.8), start=1):
            w, slots = step(cfg, w, slots, np.array([[g]]))
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            ref_w = ref_w - lr * m_hat / (math.sqrt(v_hat) + eps)
            assert abs(float(w[0, 0]) - ref_w) < 1e-14
            assert slots["t"][0, 0] == t


class TestStepContract:
    def test_nan_gradient_rejected_with_count(self):
        cfg = OptimizerConfig("adagrad")
        g = np.array([[np.nan, 1.0, np.nan]])
        with pytest.raises(ValueError, match="2 NaN"):
            step(cfg, np.zeros((1, 3)), slots_for(cfg, 1, 3), g)

    def test_shape_mismatch_rejected(self):
        cfg = OptimizerConfig("adagrad")
        with pytest.raises(ValueError):
            step(cfg, np.zeros((1, 3)), slots_for(cfg, 1, 3), np.zeros((1, 2)))

    def test_coordinate_independence(self):
        for cfg in (OptimizerConfig("ftrl"), OptimizerConfig("adagrad"),
                    OptimizerConfig("adam")):
            rng = np.random.default_rng(21)
            w = rng.uniform(-1, 1, (1, 3))
            g = rng.uniform(-1, 1, (1, 3))
            full_w, _ = step(cfg, w, slots_for(cfg, 1, 3), g)
            for c in range(3):
                one_w, _ = step(cfg, w[:, c : c + 1], slots_for(cfg, 1, 1),
                                g[:, c : c + 1])
                assert np.array_equal(full_w[:, c : c + 1], one_w)

    def test_determinism_bitwise(self):
        cfg = OptimizerConfig("adam")
        rng = np.random.default_rng(22)
        w = rng.uniform(-1, 1, (4, 2)).astype(np.float32)
        g = rng.uniform(-1, 1, (4, 2)).astype(np.float32)
        slots = slots_for(cfg, 4, 2, np.float32)
        w1, s1 = step(cfg, w, {k: v.copy() for k, v in slots.items()}, g)
        w2, s2 = step(cfg, w, {k: v.copy() for k, v in slots.items()}, g)
        assert np.array_equal(w1, w2)
        for name in s1:
            assert np.array_equal(s1[name], s2[name])

    def test_dtype_preserved(self):
        cfg = OptimizerConfig("adam")
        w = np.zeros((1, 2), dtype=np.float32)
        new_w, new_slots = step(cfg, w, slots_for(cfg, 1, 2, np.float32),
                                np.ones((1, 2), np.float32))
        assert new_w.dtype == np.float32
        assert all(arr.dtype == np.float32 for arr in new_slots.values())


class TestDenseStep:
    def test_matches_flat_step(self):
        cfg = OptimizerConfig("adam")
        rng = np.random.default_rng(23)
        w = rng.uniform(-1, 1, (3, 4)).astype(np.float32)
        g = rng.uniform(-1, 1, (3, 4)).astype(np.float32)
        state = init_dense_state(cfg, w.size, np.float32)
        new_w, _ = dense_step(cfg, w, {k: v.copy() for k, v in state.items()}, g)
        flat_w, _ = step(cfg, w.reshape(1, -1),
                         {k: v.copy() for k, v in state.items()}, g.reshape(1, -1))
        assert new_w.shape == w.shape
        assert np.array_equal(new_w.reshape(1, -1), flat_w)

    @pytest.mark.parametrize("kind", ["ftrl", "adagrad", "adam"])
    def test_one_state_over_concatenated_tensors_matches_per_tensor_states(self, kind):
        # The optimizers are elementwise, so one array with one state steps
        # every tensor in it to the same bits as a state of its own would.
        cfg = OptimizerConfig(kind)
        rng = np.random.default_rng(29)
        shapes = [(3, 4), (5,), (2, 1)]
        ws = [rng.uniform(-1, 1, s).astype(np.float32) for s in shapes]
        states = [init_dense_state(cfg, w.size, np.float32) for w in ws]
        flat = np.concatenate([w.ravel() for w in ws])
        flat_state = init_dense_state(cfg, flat.size, np.float32)
        for _ in range(3):
            gs = [rng.uniform(-1, 1, s).astype(np.float32) for s in shapes]
            for i, g in enumerate(gs):
                ws[i], states[i] = dense_step(cfg, ws[i], states[i], g)
            flat, flat_state = dense_step(cfg, flat, flat_state,
                                          np.concatenate([g.ravel() for g in gs]))
        assert flat.tobytes() == b"".join(w.tobytes() for w in ws)
        for name, slot in flat_state.items():
            if name == "t":
                assert all(state["t"].tobytes() == slot.tobytes() for state in states)
            else:
                assert slot.tobytes() == b"".join(state[name].tobytes() for state in states)

    def test_state_shapes(self):
        state = init_dense_state(OptimizerConfig("adam"), 12, np.float32)
        assert state["m"].shape == (1, 12)
        assert state["v"].shape == (1, 12)
        assert state["t"].shape == (1, 1)
