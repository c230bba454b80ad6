"""Parameter/MAC accounting against enumeration and instrumentation oracles."""

import numpy as np
import pytest

from thriftynet.errors import ConfigurationError
from thriftynet.model import MacTally, ThriftyConfig, ThriftyNet, validate_schedule
from thriftynet.planner import (
    mac_count,
    make_schedule,
    param_count,
    plan_row,
    solve_filters,
)


def config_for(f, t, h, conv_mode="classical", schedule=None, num_classes=10,
               kernel=(3, 3)):
    return ThriftyConfig(
        filters=f, iterations=t, history=h, kernel=kernel,
        schedule=schedule if schedule is not None else (1,) * t,
        conv_mode=conv_mode, num_classes=num_classes,
        input_channels=min(3, f),
    )


def random_config(rng, max_filters=16, max_iterations=8):
    f = int(rng.integers(2, max_filters + 1))
    t = int(rng.integers(1, max_iterations + 1))
    h = int(rng.integers(0, 11))
    conv_mode = "classical" if rng.random() < 0.5 else "grouped"
    schedule = tuple(int(v) for v in rng.choice([1, 1, 2], size=t))
    classes = int(rng.integers(2, 12))
    return config_for(f, t, h, conv_mode, schedule, classes)


class TestParamCount:
    def test_classical_core_example(self):
        counts = param_count(config_for(8, 5, 0))
        assert counts.core == 64 * 9 + 2 * 8 * 5 == 656

    def test_grouped_core_example(self):
        counts = param_count(config_for(8, 5, 0, conv_mode="grouped"))
        assert counts.core == 8 * (9 + 8) + 80 == 216

    def test_residual_40k_example(self):
        counts = param_count(config_for(64, 15, 5))
        assert counts.core == 36864 + 1920 == 38784
        assert counts.table1_total == 38784 + 75 == 38859
        assert counts.alpha_full == 90
        assert counts.head == 650
        assert counts.total == 38784 + 90 + 650

    @pytest.mark.parametrize("seed", range(12))
    def test_total_equals_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        config = random_config(rng)
        model = ThriftyNet(config, seed=seed)
        assert param_count(config).total == model.trainable_count()


class TestMacCount:
    def test_single_mac(self):
        config = config_for(1, 1, 0, kernel=(1, 1), num_classes=2)
        counts = mac_count(config, (1, 1))
        assert counts.per_iteration == (1,)
        assert counts.head == 1 * 2

    def test_doubling_filters_quadruples_conv_macs(self):
        base = mac_count(config_for(8, 4, 0), (16, 16))
        doubled = mac_count(config_for(16, 4, 0), (16, 16))
        assert doubled.per_iteration == tuple(4 * m for m in base.per_iteration)

    @pytest.mark.parametrize("input_hw", [(2, 8), (8, 3)])
    def test_pools_must_fit_the_input_as_the_model_requires(self, input_hw):
        config = config_for(4, 3, 0, schedule=(2, 1, 2))  # needs 4x4
        with pytest.raises(ConfigurationError, match="2 halvings but input is only"):
            mac_count(config, input_hw)
        with pytest.raises(ConfigurationError, match="2 halvings but input is only"):
            ThriftyNet(config).forward(np.zeros((1, 3, *input_hw), dtype=np.float32))

    def test_resolution_follows_schedule(self):
        config = config_for(4, 3, 0, schedule=(2, 1, 2))
        counts = mac_count(config, (8, 8))
        per_pos = 4 * 4 * 9
        assert counts.per_iteration == (per_pos * 64, per_pos * 16, per_pos * 16)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_instrumented_forward(self, seed):
        rng = np.random.default_rng(100 + seed)
        config = random_config(rng, max_filters=8, max_iterations=5)
        hw = int(rng.integers(2 ** config.n_pools, 13))
        model = ThriftyNet(config, seed=seed)
        x = rng.standard_normal((1, config.input_channels, hw, hw)).astype(np.float32)
        expected = mac_count(config, (hw, hw))
        # the tally counts the batch, mac_count one sample; an eval forward
        # runs 130 images as two chunks
        for n in (1, 3, 130):
            tally = MacTally()
            model.forward(np.repeat(x, n, axis=0), mode="eval", tally=tally)
            assert tuple(tally.per_iteration) == tuple(n * m for m in expected.per_iteration)
            assert tally.head == n * expected.head
            assert tally.total == n * expected.total


class TestSolveFilters:
    def test_inverts_core_example(self):
        assert solve_filters(656, 5, 0, convention="table1") == 8

    def test_40k_budget_table1(self):
        assert solve_filters(40000, 15, 5, convention="table1") == 64

    def test_40k_budget_total(self):
        assert solve_filters(40000, 15, 5, convention="total") == 64

    def test_monotone_in_budget(self):
        budgets = [1000, 5000, 20000, 80000]
        solutions = [solve_filters(b, 10, 3) for b in budgets]
        assert solutions == sorted(solutions)

    def test_round_trip(self):
        for f in range(2, 40, 3):
            for h in (0, 2, 5):
                config = config_for(f, 7, h)
                total = param_count(config).total
                assert solve_filters(total, 7, h) == f

    def test_infeasible_budget(self):
        with pytest.raises(ConfigurationError):
            solve_filters(5, 5, 0)


class TestMakeSchedule:
    def test_regular_spacing_example(self):
        schedule = make_schedule(15, 4)
        assert schedule == (1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 2, 1, 1, 1)
        assert [i for i, d in enumerate(schedule) if d == 2] == [2, 5, 8, 11]

    def test_front_loaded_all_pool(self):
        assert make_schedule(4, 4, "front_loaded") == (2, 2, 2, 2)

    def test_zero_pools(self):
        assert make_schedule(6, 0) == (1,) * 6

    # an explicit schedule, `--schedule 1,2,1`, is validated, not built
    def test_explicit_pass_through(self):
        assert validate_schedule((1, 2, 1), 3) == (1, 2, 1)

    def test_explicit_validation(self):
        with pytest.raises(ConfigurationError):
            validate_schedule((1, 2), 3)

    def test_too_many_pools_rejected(self):
        with pytest.raises(ConfigurationError):
            make_schedule(3, 4)

    def test_crowded_regular_rejected(self):
        with pytest.raises(ConfigurationError):
            make_schedule(4, 4, "regular")

    @pytest.mark.parametrize("t,n", [(10, 2), (15, 4), (30, 4), (20, 1)])
    def test_front_loaded_never_costs_more(self, t, n):
        regular = config_for(6, t, 0, schedule=make_schedule(t, n))
        front = config_for(6, t, 0, schedule=make_schedule(t, n, "front_loaded"))
        assert mac_count(front, (32, 32)).total <= mac_count(regular, (32, 32)).total


def test_plan_row_columns():
    row = plan_row(config_for(8, 5, 2), (32, 32))
    assert row == {
        "f": 8, "T": 5, "h": 2, "n_pools": 0,
        "params_core": 656, "params_total": 656 + 15 + 90,
        "macs_total": 8 * 8 * 9 * 32 * 32 * 5 + 80,
    }
