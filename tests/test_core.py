"""Tests for the shared domain types, which check their fields when built."""

import ast
import dataclasses
import importlib
import math
import pickle
from pathlib import Path

import pytest

from aoi_csma.core import (
    InvalidParameter,
    PolicyScheme,
    StateFractions,
    SystemParams,
)


def test_validate_accepts_reference_parameters():
    params = SystemParams(lam=0.8, mu=1.0, w=2.0, p=0.7, gamma=5.0,
                          n_devices=100, n_channels=20)
    assert (params.gamma, params.n_devices) == (5.0, 100)


@pytest.mark.parametrize("field,params", [
    ("lam", dict(lam=0.0, mu=1, w=1, p=1, gamma=1)),
    ("lam", dict(lam=-0.1, mu=1, w=1, p=1, gamma=1)),
    ("mu", dict(lam=1, mu=0, w=1, p=1, gamma=1)),
    ("w", dict(lam=1, mu=1, w=-2, p=1, gamma=1)),
    ("gamma", dict(lam=1, mu=1, w=1, p=1, gamma=0)),
    ("p", dict(lam=1, mu=1, w=1, p=1.2, gamma=1)),
    ("p", dict(lam=1, mu=1, w=1, p=-0.01, gamma=1)),
    ("lam", dict(lam=math.inf, mu=1, w=1, p=1, gamma=1)),
    ("n_devices", dict(lam=1, mu=1, w=1, p=1, gamma=1, n_devices=0, n_channels=1)),
    # N and M before the gamma = N / M derived from them
    ("n_devices", dict(lam=1, mu=1, w=1, p=1, gamma=0.0, n_devices=0, n_channels=4)),
])
def test_validate_names_the_violated_field(field, params):
    with pytest.raises(InvalidParameter) as exc:
        SystemParams(**params)
    assert exc.value.field == field


def test_validate_rejects_gamma_population_mismatch():
    with pytest.raises(InvalidParameter) as exc:
        SystemParams(lam=1, mu=1, w=1, p=1, gamma=5.0, n_devices=100, n_channels=21)
    assert exc.value.field == "gamma"


def test_validate_accepts_p_zero():
    # p = 0 is a valid parameter record; only AoI evaluation diverges there.
    assert SystemParams(lam=1, mu=1, w=1, p=0.0, gamma=1).p == 0.0


def test_validate_runs_again_on_replace():
    params = SystemParams(lam=1, mu=1, w=1, p=1, gamma=1)
    with pytest.raises(InvalidParameter) as exc:
        dataclasses.replace(params, mu=-1.0)
    assert exc.value.field == "mu"


def test_policy_scheme_combinations():
    combos = PolicyScheme.all_combinations()
    assert len(combos) == 6
    assert len(set(combos)) == 6
    assert {ps.label for ps in combos} == {
        "I-WP", "I-WOP", "W-WP", "W-WOP", "S-WP", "S-WOP",
    }


def test_state_fractions_simplex_check():
    assert StateFractions(0.2, 0.3, 0.5).on_simplex()
    assert not StateFractions(0.2, 0.3, 0.6).on_simplex()
    assert not StateFractions(-0.1, 0.6, 0.5).on_simplex()


def test_invalid_parameter_survives_pickling():
    # errors raised in replicate's worker processes reach the caller pickled
    for exc in (InvalidParameter("lam", "must be positive"), InvalidParameter("p")):
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is InvalidParameter
        assert str(copy) == str(exc)
        assert copy.field == exc.field


def test_benchmark_traced_functions_exist():
    # perfbench/tracer.py wraps these by name; read the table without running the file
    source = (Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text()
    table = next(node.value for node in ast.parse(source).body
                 if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "LAYER_FUNCTIONS" for t in node.targets))
    for layer, names in ast.literal_eval(table).items():
        module = importlib.import_module(f"aoi_csma.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
