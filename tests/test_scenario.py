"""Tests for the declarative scenario schema and the plugin registries.

Covers the acceptance criteria of the scenario API:

* parameter serialization round trip (``parameter_from_dict(p.to_dict()) == p``
  for all five types, property-tested),
* scenario round trip (``Scenario.from_dict(s.to_dict()) == s``),
* precise JSON-pointer error paths for every validation failure mode:
  unknown plugin name, missing required field, wrong type, and
  schema-version mismatch,
* TOML parsing, and registry extension/lookup behaviour.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.parameters import (
    BooleanParameter,
    CategoricalParameter,
    IntegerParameter,
    OrdinalParameter,
    Parameter,
    RealParameter,
    parameter_from_dict,
)
from repro.core.registry import (
    ACQUISITION_REGISTRY,
    EVALUATOR_REGISTRY,
    Registry,
    UnknownPluginError,
    register_acquisition,
)
from repro.core.scenario import SCENARIO_VERSION, Scenario, ScenarioError, validate_scenario
from repro.core.space import DesignSpace
from repro.core.sweep import load_spec_file
from repro.slambench.parameters import elasticfusion_design_space, kfusion_design_space

REPO = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Parameter serialization round trips (satellite: Parameter.to_dict)
# ---------------------------------------------------------------------------

_names = st.text(alphabet="abcdefghij_", min_size=1, max_size=8)
_scalars = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False),
)


@st.composite
def ordinal_params(draw):
    values = draw(st.lists(_scalars, min_size=1, max_size=6, unique=True))
    default = draw(st.sampled_from(values)) if draw(st.booleans()) else None
    return OrdinalParameter(draw(_names), values, default=default)


@st.composite
def integer_params(draw):
    lower = draw(st.integers(min_value=-50, max_value=50))
    upper = draw(st.integers(min_value=lower, max_value=lower + 100))
    default = draw(st.integers(min_value=lower, max_value=upper)) if draw(st.booleans()) else None
    return IntegerParameter(draw(_names), lower, upper, default=default)


@st.composite
def real_params(draw):
    lower = draw(st.floats(min_value=0.01, max_value=50, allow_nan=False))
    upper = lower + draw(st.floats(min_value=0.5, max_value=100, allow_nan=False))
    log_scale = draw(st.booleans())
    grid_points = draw(st.integers(min_value=2, max_value=32))
    return RealParameter(
        draw(_names), lower, upper, log_scale=log_scale, grid_points=grid_points
    )


@st.composite
def categorical_params(draw):
    choices = draw(
        st.lists(st.text(alphabet="xyzw", min_size=1, max_size=4), min_size=1, max_size=5, unique=True)
    )
    default = draw(st.sampled_from(choices)) if draw(st.booleans()) else None
    return CategoricalParameter(draw(_names), choices, default=default)


@st.composite
def boolean_params(draw):
    return BooleanParameter(draw(_names), default=draw(st.booleans()))


any_parameter = st.one_of(
    ordinal_params(), integer_params(), real_params(), categorical_params(), boolean_params()
)


class TestParameterRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(any_parameter)
    def test_to_dict_inverts_from_dict(self, p: Parameter):
        spec = p.to_dict()
        revived = parameter_from_dict(spec)
        assert revived == p
        assert revived.to_dict() == spec

    @settings(max_examples=60, deadline=None)
    @given(any_parameter)
    def test_spec_is_json_serializable(self, p: Parameter):
        revived = parameter_from_dict(json.loads(json.dumps(p.to_dict())))
        assert revived == p

    def test_explicit_default_preserved_implicit_stays_implicit(self):
        explicit = OrdinalParameter("x", [1, 2, 3], default=3)
        implicit = OrdinalParameter("x", [1, 2, 3])
        assert explicit.to_dict()["default"] == 3
        assert "default" not in implicit.to_dict()
        assert explicit != implicit

    def test_equality_distinguishes_types(self):
        assert OrdinalParameter("x", [0, 1]) != IntegerParameter("x", 0, 1)
        # Boolean is a CategoricalParameter subclass but a distinct spec type.
        assert BooleanParameter("x") != CategoricalParameter("x", [False, True])

    def test_design_space_round_trip(self):
        space = DesignSpace(
            [
                OrdinalParameter("a", [1, 2, 4], default=2),
                IntegerParameter("b", 0, 9),
                RealParameter("c", 0.1, 10.0, log_scale=True, grid_points=8),
                CategoricalParameter("d", ["u", "v"]),
                BooleanParameter("e", default=True),
            ],
            name="round-trip",
        )
        revived = DesignSpace.from_specs(space.to_dicts(), name=space.name)
        assert revived.parameter_names == space.parameter_names
        assert revived.parameters == space.parameters
        assert DesignSpace.from_dict(space.to_dict()).to_dict() == space.to_dict()


# ---------------------------------------------------------------------------
# Scenario validation
# ---------------------------------------------------------------------------


def toy_scenario_dict(**overrides):
    base = {
        "schema_version": SCENARIO_VERSION,
        "name": "toy",
        "space": {
            "name": "toy",
            "parameters": [
                {"type": "ordinal", "name": "a", "values": [1, 2, 4]},
                {"type": "boolean", "name": "fast", "default": False},
            ],
        },
        "objectives": [
            {"name": "error", "limit": 0.5},
            {"name": "runtime"},
        ],
        "evaluator": {"type": "function"},
        "search": {
            "algorithm": "hypermapper",
            "n_random_samples": 8,
            "max_iterations": 2,
            "pool_size": None,
        },
        "seed": 3,
    }
    base.update(overrides)
    return base


class TestScenarioValidation:
    def test_round_trip_is_lossless(self):
        s = Scenario.from_dict(toy_scenario_dict())
        assert Scenario.from_dict(s.to_dict()) == s
        assert Scenario.from_json(s.to_json()) == s

    def test_schema_version_mismatch_path(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(toy_scenario_dict(schema_version=99))
        assert exc.value.path == "/schema_version"
        assert "99" in str(exc.value)

    def test_schema_version_missing_path(self):
        data = toy_scenario_dict()
        del data["schema_version"]
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(data)
        assert exc.value.path == "/schema_version"

    def test_unknown_evaluator_plugin_path(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(toy_scenario_dict(evaluator={"type": "no_such_evaluator"}))
        assert exc.value.path == "/evaluator/type"
        assert "no_such_evaluator" in str(exc.value)

    def test_unknown_search_algorithm_path(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(toy_scenario_dict(search={"algorithm": "simulated_annealing"}))
        assert exc.value.path == "/search/algorithm"

    def test_unknown_acquisition_path(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(
                toy_scenario_dict(search={"algorithm": "hypermapper", "acquisition": "nope"})
            )
        assert exc.value.path == "/search/acquisition"

    def test_unknown_workload_and_device_paths(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(
                toy_scenario_dict(
                    evaluator={"type": "slambench", "workload": "orbslam", "device": "odroid-xu3"}
                )
            )
        assert exc.value.path == "/evaluator/workload"
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(
                toy_scenario_dict(
                    evaluator={"type": "slambench", "workload": "kfusion", "device": "cray-1"}
                )
            )
        assert exc.value.path == "/evaluator/device"

    def test_missing_evaluator_path(self):
        data = toy_scenario_dict()
        del data["evaluator"]
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(data)
        assert exc.value.path == "/evaluator"

    def test_missing_parameter_field_path(self):
        data = toy_scenario_dict()
        data["space"]["parameters"][0] = {"type": "ordinal", "name": "a"}  # no values
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(data)
        assert exc.value.path == "/space/parameters/0"

    def test_wrong_type_seed_path(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(toy_scenario_dict(seed="forty-two"))
        assert exc.value.path == "/seed"
        assert "str" in str(exc.value)

    def test_wrong_type_nested_path(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(
                toy_scenario_dict(executor={"n_workers": "many"})
            )
        assert exc.value.path == "/executor/n_workers"

    def test_wrong_type_objective_limit_path(self):
        data = toy_scenario_dict()
        data["objectives"][0]["limit"] = "small"
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(data)
        assert exc.value.path == "/objectives/0/limit"

    def test_unknown_top_level_key_path(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(toy_scenario_dict(surrogate={"n_estimators": 8}))
        assert exc.value.path == "/surrogate"

    def test_function_evaluator_requires_explicit_problem(self):
        data = toy_scenario_dict()
        del data["space"]
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(data)
        assert exc.value.path == "/space"

    def test_slambench_supplies_problem(self):
        data = toy_scenario_dict(
            evaluator={"type": "slambench", "workload": "kfusion", "device": "odroid-xu3"}
        )
        del data["space"]
        del data["objectives"]
        s = Scenario.from_dict(data)
        assert s.build_space() is None  # explicit space absent; workload supplies it

    @pytest.mark.parametrize(
        "key, value",
        # A typo'd knob, and the deleted refit option with either old value.
        [('max_iteration', 99), ('refit', 'full'), ('refit', 'incremental')],
    )
    def test_typoed_search_knob_rejected_for_builtin_algorithm(self, key, value):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(toy_scenario_dict(search={"algorithm": "hypermapper", key: value}))
        assert exc.value.path == f"/search/{key}"

    @pytest.mark.parametrize(
        "key, value",
        # A typo'd knob, the removed engine knobs, and the seed that the
        # search builder passes to the surrogate itself.
        [
            ("n_estimator", 8),
            ("splitter", "exact"),
            ("n_jobs", 4),
            ("max_bins", 64),
            ("random_state", 1),
        ],
    )
    def test_unknown_surrogate_key_rejected(self, key, value):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(
                toy_scenario_dict(search={"algorithm": "hypermapper", "surrogate": {key: value}})
            )
        assert exc.value.path == f"/search/surrogate/{key}"

    def test_surrogate_knob_accepted(self):
        s = Scenario.from_dict(
            toy_scenario_dict(search={"algorithm": "hypermapper", "surrogate": {"n_estimators": 8}})
        )
        assert s.search_spec["surrogate"] == {"n_estimators": 8}

    def test_baseline_budget_required_at_validation(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(toy_scenario_dict(search={"algorithm": "random"}))
        assert exc.value.path == "/search/budget"

    def test_pipeline_options_rejected_for_kfusion(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(
                toy_scenario_dict(
                    evaluator={
                        "type": "slambench",
                        "workload": "kfusion",
                        "device": "odroid-xu3",
                        "pipeline_options": {"fusion_stride": 2},
                    }
                )
            )
        assert exc.value.path == "/evaluator/pipeline_options"

    def test_overlap_fraction_bounds(self):
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(toy_scenario_dict(executor={"overlap_fraction": 1.5}))
        assert exc.value.path == "/executor/overlap_fraction"

    def test_budget_section(self):
        s = Scenario.from_dict(toy_scenario_dict(budget={"max_evaluations": 50}))
        assert s.budget_spec["max_evaluations"] == 50
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(toy_scenario_dict(budget={"max_evaluations": 0}))
        assert exc.value.path == "/budget/max_evaluations"

    def test_toml_round_trip(self, tmp_path):
        toml_text = """
schema_version = 1
name = "toml-toy"
seed = 5

[evaluator]
type = "slambench"
workload = "kfusion"
device = "odroid-xu3"
n_frames = 10

[search]
algorithm = "hypermapper"
n_random_samples = 6
max_iterations = 1
"""
        path = tmp_path / "scenario.toml"
        path.write_text(toml_text)
        s = Scenario.from_file(path)
        assert s.name == "toml-toy"
        assert s.seed == 5
        assert s.search_spec["n_random_samples"] == 6
        # JSON re-serialization of a TOML scenario is still lossless.
        assert Scenario.from_json(s.to_json()) == s

    def test_categorical_choices_that_compare_equal_fail_to_load(self):
        data = toy_scenario_dict()
        data["space"]["parameters"].append({"type": "categorical", "name": "c", "choices": [1, True]})
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_json(json.dumps(data))
        assert exc.value.path == "/space/parameters/2"
        assert "compare equal" in str(exc.value)

    def test_shipped_scenarios_golden_sweep_and_spaces_still_load(self):
        shipped = sorted((REPO / "examples" / "scenarios").glob("*.json"))
        shipped += sorted((REPO / "examples" / "scenarios").glob("*.toml"))
        assert len(shipped) >= 6
        for path in shipped:
            load_spec_file(path)
        points = sorted((REPO / "tests" / "data" / "golden_sweep" / "points").glob("*/scenario.json"))
        assert points
        for path in points:
            s = Scenario.from_file(path)
            assert Scenario.from_dict(s.to_dict()) == s
        for space in (kfusion_design_space(), elasticfusion_design_space()):
            for p in space.parameters:
                assert parameter_from_dict(p.to_dict()) == p

    def test_validate_scenario_normalizes_defaults(self):
        out = validate_scenario(toy_scenario_dict())
        assert out["executor"] == {"n_workers": 1, "backend": "thread", "overlap_fraction": None}
        assert out["checkpoint"] == {"every": 1}
        assert out["budget"] == {"max_evaluations": None}

    def test_constraints_validation(self):
        s = Scenario.from_dict(
            toy_scenario_dict(constraints=[{"metric": "error", "upper": 0.4}])
        )
        constraints = s.build_constraints()
        assert len(constraints) == 1
        with pytest.raises(ScenarioError) as exc:
            Scenario.from_dict(toy_scenario_dict(constraints=[{"metric": "error"}]))
        assert exc.value.path == "/constraints/0"


# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_unknown_name_lists_available(self):
        with pytest.raises(UnknownPluginError) as exc:
            ACQUISITION_REGISTRY.get("does_not_exist")
        assert "predicted_pareto" in str(exc.value)

    def test_builtins_registered(self):
        assert "predicted_pareto" in ACQUISITION_REGISTRY.names()
        assert "slambench" in EVALUATOR_REGISTRY.names()

    def test_decorator_registration_and_override(self):
        registry = Registry("widget")

        @registry.register("foo")
        class Foo:
            pass

        assert registry.get("foo") is Foo

        @registry.register("foo")
        class Foo2:
            pass

        assert registry.get("foo") is Foo2  # latest wins
        registry.unregister("foo")

    def test_third_party_acquisition_becomes_valid_scenario_value(self):
        from repro.core.acquisition import PredictedPareto

        @register_acquisition("test_only_acquisition")
        class TestOnly(PredictedPareto):
            pass

        try:
            s = Scenario.from_dict(
                toy_scenario_dict(
                    search={"algorithm": "hypermapper", "acquisition": "test_only_acquisition"}
                )
            )
            assert s.search_spec["acquisition"] == "test_only_acquisition"
        finally:
            ACQUISITION_REGISTRY.unregister("test_only_acquisition")
