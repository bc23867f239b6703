"""Unit tests for the parameter types."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.parameters import (
    BooleanParameter,
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    RealParameter,
    parameter_from_dict,
)


class TestOrdinalParameter:
    def test_values_and_cardinality(self):
        p = OrdinalParameter("res", [64, 128, 256], default=256)
        assert p.values() == [64, 128, 256]
        assert p.cardinality == 3
        assert p.default == 256
        assert p.is_discrete and not p.is_categorical

    def test_fallback_default_is_middle(self):
        p = OrdinalParameter("x", [1, 2, 3, 4, 5])
        assert p.default == 3

    def test_contains(self):
        p = OrdinalParameter("x", [0.1, 0.2])
        assert p.contains(0.1)
        assert not p.contains(0.15)

    def test_sample_within_domain(self, rng):
        p = OrdinalParameter("x", [1, 2, 4, 8])
        samples = p.sample(rng, size=50)
        assert all(s in (1, 2, 4, 8) for s in samples)

    def test_numeric_roundtrip(self):
        p = OrdinalParameter("mu", [0.025, 0.05, 0.1, 0.2])
        assert p.from_numeric(p.to_numeric(0.05)) == 0.05
        # Snaps to the nearest legal value.
        assert p.from_numeric(0.06) == 0.05
        assert p.from_numeric(0.09) == 0.1

    def test_non_numeric_values_use_index_encoding(self):
        p = OrdinalParameter("mode", ["low", "mid", "high"])
        assert p.to_numeric("mid") == 1.0
        assert p.from_numeric(2.2) == "high"

    def test_duplicate_values_rejected(self):
        with pytest.raises(ValueError):
            OrdinalParameter("x", [1, 1, 2])

    def test_default_must_be_member(self):
        with pytest.raises(ValueError):
            OrdinalParameter("x", [1, 2], default=3)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            OrdinalParameter("x", [])


class TestIntegerParameter:
    def test_range(self):
        p = IntegerParameter("n", 1, 5, default=2)
        assert p.cardinality == 5
        assert p.values() == [1, 2, 3, 4, 5]
        assert p.contains(3) and not p.contains(6) and not p.contains(2.5)

    def test_from_numeric_clamps(self):
        p = IntegerParameter("n", 1, 5)
        assert p.from_numeric(9.7) == 5
        assert p.from_numeric(-3) == 1

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            IntegerParameter("n", 5, 1)

    def test_sample_in_range(self, rng):
        p = IntegerParameter("n", 3, 7)
        assert all(3 <= v <= 7 for v in p.sample(rng, size=40))


class TestRealParameter:
    def test_basic(self):
        p = RealParameter("w", 0.0, 1.0, default=0.3)
        assert not p.is_discrete
        assert p.contains(0.5) and not p.contains(1.5)
        assert p.default == 0.3

    def test_log_scale_sampling(self, rng):
        p = RealParameter("thr", 1e-6, 1e-1, log_scale=True)
        samples = p.sample(rng, size=200)
        assert all(1e-6 <= s <= 1e-1 for s in samples)
        # Log-uniform sampling should produce values spanning several decades.
        assert min(samples) < 1e-4 < max(samples)

    def test_log_scale_requires_positive_lower(self):
        with pytest.raises(ValueError):
            RealParameter("x", 0.0, 1.0, log_scale=True)

    def test_grid_values(self):
        p = RealParameter("x", 0.0, 1.0, grid_points=5)
        values = p.values()
        assert len(values) == 5
        assert values[0] == pytest.approx(0.0) and values[-1] == pytest.approx(1.0)

    def test_from_numeric_clamps(self):
        p = RealParameter("x", 0.0, 1.0)
        assert p.from_numeric(3.0) == 1.0


class TestCategoricalAndBoolean:
    def test_categorical_encoding(self):
        p = CategoricalParameter("backend", ["opencl", "cuda", "cpu"], default="cuda")
        assert p.is_categorical
        assert p.index_of("cuda") == 1
        assert p.to_numeric("cpu") == 2.0
        assert p.from_numeric(0.4) == "opencl"
        assert p.default == "cuda"

    def test_categorical_rejects_unknown_default(self):
        with pytest.raises(ValueError):
            CategoricalParameter("x", ["a", "b"], default="c")

    @pytest.mark.parametrize("choices", [[1, True, "z"], [0, False], [1, 1.0], [[0, 1], [0, 1]]])
    def test_categorical_rejects_choices_that_compare_equal(self, choices):
        # ``index_of`` matches by ``==``: equal choices would share an index.
        with pytest.raises(ValueError, match="'c'"):
            CategoricalParameter("c", choices)

    def test_equal_choices_error_names_the_pair(self):
        with pytest.raises(ValueError) as exc:
            CategoricalParameter("c", ["z", 1, True])
        assert "'c'" in str(exc.value) and "choices 1 and True" in str(exc.value)

    def test_boolean_parameter(self):
        p = BooleanParameter("open_loop", default=False)
        assert p.values() == [False, True]
        assert p.to_numeric(True) == 1.0
        assert p.from_numeric(0.2) is False
        assert not p.is_categorical  # booleans are ordered 0/1 features

    @given(st.booleans())
    def test_boolean_roundtrip(self, value):
        p = BooleanParameter("flag")
        assert p.from_numeric(p.to_numeric(value)) == value


class TestParameterFromDict:
    def test_all_kinds(self):
        specs = [
            {"type": "ordinal", "name": "a", "values": [1, 2, 3], "default": 2},
            {"type": "integer", "name": "b", "lower": 0, "upper": 4},
            {"type": "real", "name": "c", "lower": 0.0, "upper": 1.0},
            {"type": "categorical", "name": "d", "choices": ["x", "y"]},
            {"type": "boolean", "name": "e", "default": True},
        ]
        params = [parameter_from_dict(s) for s in specs]
        assert [type(p).__name__ for p in params] == [
            "OrdinalParameter",
            "IntegerParameter",
            "RealParameter",
            "CategoricalParameter",
            "BooleanParameter",
        ]
        assert params[0].default == 2
        assert params[4].default is True

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            parameter_from_dict({"type": "weird", "name": "x"})

    def test_missing_name_rejected(self):
        with pytest.raises(ValueError):
            parameter_from_dict({"type": "boolean"})


class TestWorkloadSpacesSurviveJSON:
    def test_every_value_keeps_its_type_through_json(self):
        """Socket workers revive configurations from JSON: a sampled value
        and its JSON copy must be the same Python value of the same type."""
        import json

        from repro.core.registry import WORKLOAD_REGISTRY
        from repro.slambench.workloads import get_workload

        for name in WORKLOAD_REGISTRY.names():
            for parameter in get_workload(name).space().parameters:
                for value in parameter.values():
                    back = json.loads(json.dumps(value))
                    assert (type(back), back) == (type(value), value), (name, parameter.name)
