"""Phase-mask objective: frozen oracle values and exact symmetries.

Expected values were computed with an independent pure-python DFT
(cmath sums, no numpy) and an exhaustive enumerator; see test docstrings.
"""

import cmath
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idleclimb.coordination import FormatError
from idleclimb.objective import (
    MAX_LEVELS,
    PhaseMaskObjective,
    efficiency,
    from_manifest,
    neighbors,
    validate_config,
)
from support import BRUTE_FORCE_LIMIT, brute_force_optimum, spectrum

# Computed by exhaustive enumeration with the cmath oracle below.
N8_L2_K1_OPTIMUM_CONFIG = (0, 0, 0, 0, 1, 1, 1, 1)
N8_L2_K1_OPTIMUM_VALUE = 0.4267766952966369  # == (2 + sqrt(2)) / 8


def dft_oracle(levels, level_count, order):
    """Independent single-coefficient DFT: plain cmath, no numpy."""
    n = len(levels)
    total = sum(
        cmath.exp(2j * cmath.pi * (lv / level_count))
        * cmath.exp(-2j * cmath.pi * order * m / n)
        for m, lv in enumerate(levels)
    )
    return abs(total) ** 2 / n**2


masks = st.integers(min_value=1, max_value=24).flatmap(
    lambda n: st.tuples(
        st.integers(min_value=2, max_value=8),
        st.lists(st.integers(min_value=0, max_value=7), min_size=n, max_size=n),
    )
)


def _clamp(levels, level_count):
    return tuple(v % level_count for v in levels)


class TestEvaluate:
    def test_uniform_mask_all_power_in_order_zero(self):
        obj = PhaseMaskObjective(length=4, level_count=2, target_order=0)
        assert obj.evaluate((0, 0, 0, 0)) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_mask_nothing_in_order_one(self):
        obj = PhaseMaskObjective(length=4, level_count=2, target_order=1)
        assert obj.evaluate((0, 0, 0, 0)) == pytest.approx(0.0, abs=1e-15)

    def test_alternating_two_element_mask_perfect_order_one(self):
        obj = PhaseMaskObjective(length=2, level_count=2, target_order=1)
        assert obj.evaluate((0, 1)) == pytest.approx(1.0, abs=1e-15)

    def test_period_four_binary_grating_order_two(self):
        # Independent oracle value: dft_oracle([0,0,1,1,0,0,1,1], 2, 2) = 0.5
        obj = PhaseMaskObjective(length=8, level_count=2, target_order=2)
        value = obj.evaluate((0, 0, 1, 1, 0, 0, 1, 1))
        assert value == pytest.approx(0.5, abs=1e-12)
        assert value == pytest.approx(dft_oracle((0, 0, 1, 1, 0, 0, 1, 1), 2, 2), abs=1e-12)

    @given(masks)
    @settings(max_examples=60)
    def test_matches_independent_dft(self, params):
        level_count, levels = params
        levels = _clamp(levels, level_count)
        order = len(levels) // 2
        got = efficiency(levels, level_count, order)
        assert got == pytest.approx(dft_oracle(levels, level_count, order), abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        obj = PhaseMaskObjective(length=4, level_count=2, target_order=0)
        with pytest.raises(ValueError):
            obj.evaluate((0, 0, 0))
        with pytest.raises(ValueError):
            obj.evaluate((0, 0, 0, 2))

    def test_purity_bit_identical(self):
        obj = PhaseMaskObjective(length=16, level_count=4, target_order=5)
        config = tuple((3 * i + 1) % 4 for i in range(16))
        assert obj.evaluate(config) == obj.evaluate(config)


class TestProperties:
    @given(masks)
    @settings(max_examples=60)
    def test_normalization(self, params):
        level_count, levels = params
        levels = _clamp(levels, level_count)
        assert abs(spectrum(levels, level_count).sum() - 1.0) < 1e-12

    @given(masks, st.integers(min_value=0, max_value=63))
    @settings(max_examples=60)
    def test_cyclic_rotation_invariance(self, params, shift):
        level_count, levels = params
        levels = _clamp(levels, level_count)
        n = len(levels)
        order = n - 1
        rotated = levels[shift % n :] + levels[: shift % n]
        assert efficiency(rotated, level_count, order) == pytest.approx(
            efficiency(levels, level_count, order), abs=1e-12
        )

    @given(masks, st.integers(min_value=1, max_value=7))
    @settings(max_examples=60)
    def test_global_phase_offset_invariance(self, params, offset):
        level_count, levels = params
        levels = _clamp(levels, level_count)
        shifted = tuple((v + offset) % level_count for v in levels)
        for order in (0, len(levels) // 2):
            assert efficiency(shifted, level_count, order) == pytest.approx(
                efficiency(levels, level_count, order), abs=1e-12
            )

    @given(st.integers(min_value=2, max_value=16).flatmap(
        lambda level_count: st.tuples(
            st.just(level_count),
            st.lists(st.integers(0, level_count - 1), min_size=1, max_size=64).map(tuple),
        )))
    @settings(max_examples=150)
    def test_efficiency_is_bit_identical_to_the_direct_sum(self, params):
        # The tables efficiency() looks up must give exactly what building
        # every phasor afresh gives: == here, not approx.
        level_count, levels = params
        n = len(levels)
        for order in range(n):
            amplitudes = np.exp(2j * np.pi * np.asarray(levels, dtype=np.float64) / level_count)
            phasor = np.exp(-2j * np.pi * order * np.arange(n) / n)
            direct = float(abs(np.dot(amplitudes, phasor)) ** 2) / n**2
            assert efficiency(levels, level_count, order) == direct

    def test_spectrum_matches_fft(self):
        levels = (0, 1, 3, 2, 1, 0, 2, 3, 1, 1)
        amplitudes = np.exp(2j * np.pi * np.array(levels) / 4)
        via_fft = np.abs(np.fft.fft(amplitudes)) ** 2 / len(levels) ** 2
        assert np.allclose(spectrum(levels, 4), via_fft, atol=1e-12)


class TestBruteForce:
    def test_two_element_order_zero(self):
        obj = PhaseMaskObjective(length=2, level_count=2, target_order=0)
        config, value = brute_force_optimum(obj)
        assert config == (0, 0)
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_two_element_order_one(self):
        obj = PhaseMaskObjective(length=2, level_count=2, target_order=1)
        config, value = brute_force_optimum(obj)
        assert config == (0, 1)
        assert value == pytest.approx(1.0, abs=1e-15)

    def test_pinned_eight_element_optimum(self):
        obj = PhaseMaskObjective(length=8, level_count=2, target_order=1)
        config, value = brute_force_optimum(obj)
        assert config == N8_L2_K1_OPTIMUM_CONFIG
        assert value == N8_L2_K1_OPTIMUM_VALUE

    def test_matches_exhaustive_oracle(self):
        obj = PhaseMaskObjective(length=6, level_count=3, target_order=2)
        config, value = brute_force_optimum(obj)
        best = max(
            itertools.product(range(3), repeat=6), key=lambda c: dft_oracle(c, 3, 2)
        )
        assert value == pytest.approx(dft_oracle(best, 3, 2), abs=1e-12)

    def test_oracle_consistency(self):
        obj = PhaseMaskObjective(length=8, level_count=2, target_order=3)
        config, value = brute_force_optimum(obj)
        assert obj.evaluate(config) == value

    def test_lexicographic_tie_break(self):
        # Order 0 is maximized by every uniform mask; ties must resolve to
        # the all-zero config.
        obj = PhaseMaskObjective(length=4, level_count=3, target_order=0)
        config, _ = brute_force_optimum(obj)
        assert config == (0, 0, 0, 0)

    def test_size_guard(self):
        obj = PhaseMaskObjective(length=21, level_count=2, target_order=1)
        assert 2**21 > BRUTE_FORCE_LIMIT
        with pytest.raises(ValueError, match="enumeration limit"):
            brute_force_optimum(obj)


class TestNeighbors:
    def test_counts(self):
        two = PhaseMaskObjective(length=2, level_count=2, target_order=0)
        assert len(list(neighbors(two, (0, 1)))) == 2
        nine = PhaseMaskObjective(length=3, level_count=4, target_order=0)
        assert len(list(neighbors(nine, (0, 1, 2)))) == 9

    def test_each_neighbor_differs_in_one_position(self):
        obj = PhaseMaskObjective(length=5, level_count=3, target_order=1)
        config = (0, 2, 1, 1, 0)
        seen = set()
        for index, value in neighbors(obj, config):
            assert value != config[index]
            changed = config[:index] + (value,) + config[index + 1 :]
            diffs = sum(a != b for a, b in zip(changed, config))
            assert diffs == 1
            seen.add((index, value))
        assert len(seen) == 5 * 2


class TestManifest:
    def test_round_trip(self):
        obj = from_manifest({"objective": "phase_mask", "n": "8", "levels": "4",
                             "target_order": "3"})
        assert obj == PhaseMaskObjective(length=8, level_count=4, target_order=3)

    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown objective"):
            from_manifest({"objective": "fdtd"})

    def test_single_level_rejected(self):
        with pytest.raises(ValueError):
            from_manifest({"objective": "phase_mask", "n": "4", "levels": "1",
                           "target_order": "0"})

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 64), levels=st.integers(2, 16), data=st.data())
    def test_manifest_params_round_trip(self, n, levels, data):
        obj = PhaseMaskObjective(length=n, level_count=levels,
                                 target_order=data.draw(st.integers(0, n - 1)))
        assert from_manifest(obj.manifest_params()) == obj

    @pytest.mark.parametrize("params", [
        {"objective": "nope"},
        {"objective": "phase_mask", "n": "eight", "levels": "2", "target_order": "0"},
        {"objective": "phase_mask", "n": "4", "levels": "1", "target_order": "0"},
        {"objective": "phase_mask", "n": "4"},
        {"objective": "phase_mask", "n": "4", "levels": str(MAX_LEVELS + 1), "target_order": "0"},
    ])
    def test_bad_manifest_is_a_format_error(self, params):
        with pytest.raises(FormatError):
            from_manifest(params)


def test_validate_config_bounds():
    validate_config((0, 1), 2, 2)
    with pytest.raises(ValueError):
        validate_config((0, 2), 2, 2)
    with pytest.raises(ValueError):
        validate_config((-1, 0), 2, 2)


def validate_config_by_loop(config, length, level_count):
    """The element-by-element check :func:`validate_config` falls back on."""
    if len(config) != length:
        raise FormatError(f"config has {len(config)} elements, expected {length}")
    for i, v in enumerate(config):
        if not 0 <= v < level_count:
            raise FormatError(f"config[{i}]={v} outside [0, {level_count})")


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)
    return None


elements = st.one_of(
    st.integers(-3, 20),
    st.booleans(),
    st.floats(-2.0, 20.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["1", None, (1,), [1]]),
)


@settings(max_examples=400, deadline=None)
@given(
    level_count=st.integers(2, 16),
    config=st.one_of(
        st.lists(st.integers(0, 15), max_size=12),
        st.lists(elements, max_size=12),
    ),
    extra=st.one_of(st.just(0), st.integers(-2, 2)),
    as_tuple=st.booleans(),
)
def test_validate_config_accepts_and_rejects_as_the_loop_does(level_count, config, extra,
                                                               as_tuple):
    config = tuple(config) if as_tuple else config
    length = max(len(config) + extra, 0)
    expected = _outcome(validate_config_by_loop, config, length, level_count)
    assert _outcome(validate_config, config, length, level_count) == expected
