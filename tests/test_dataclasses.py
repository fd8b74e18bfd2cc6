"""Equality and hashing of every dataclass in the package.

Generated field-wise equality compares numpy arrays elementwise and raises
(ValueError from ==, TypeError from hash of an array or a dict), so every
dataclass must either hold only plain values or compare by identity.
"""

import copy
import dataclasses
import functools
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

from helpers import uniform_two_layer_network
import qpathnet
from qpathnet import (
    MeterSpec,
    PathFunctional,
    PointerProfile,
    RunSettings,
    amplitude_distribution,
    build_preset,
    build_three_box,
    classical_paths,
    export_config,
    joint_reading_distribution,
    parse_config,
    reading_distribution,
    sample_trials,
    weak_limit_report,
)
from qpathnet.config import ClassicalSettings
from qpathnet.scenarios import CheckResult, Expected, VerificationReport


def package_dataclasses():
    classes = {}
    for info in pkgutil.iter_modules(qpathnet.__path__):
        module = importlib.import_module(f"qpathnet.{info.name}")
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                classes[f"{info.name}.{name}"] = obj
    return classes


@functools.cache
def instances():
    preset = build_preset("difference")
    chain, meter = preset.chain, preset.meters[0]
    three_box = build_three_box()
    network = uniform_two_layer_network()
    trials = sample_trials(chain, [meter], 100, seed=1)
    check = CheckResult("mean", 1.0, 1.0, 0.0, 1e-9, True)
    return {
        "core.StateVector": chain.pre_state,
        "core.Observable": chain.steps[0].observable,
        "core.Propagator": chain.propagator,
        "paths.MeasurementStep": chain.steps[0],
        "paths.MeasurementChain": chain,
        "paths.AmplitudeDistribution": amplitude_distribution(chain, meter.functional),
        "meter.PointerProfile": PointerProfile.tabulated([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]),
        "meter.MeterSpec": meter,
        "meter.Grid": reading_distribution(chain, meter).grids[0],
        "meter.PointerDistribution": reading_distribution(chain, meter),
        "meter.JointDistribution": joint_reading_distribution(three_box.chain, list(three_box.meters)),
        "meter.WeakLimitReport": weak_limit_report(chain, meter.functional, (1.0, 10.0)),
        "classical.ClassicalConnector": network.connectors["in"],
        "classical.ClassicalNetwork": network,
        "classical.ClassicalPath": classical_paths(network)[0],
        "config.RunSettings": RunSettings(widths=(1.0, 2.0)),
        "config.ClassicalSettings": ClassicalSettings(tuple(classical_paths(network)), None, frozenset({"f0"})),
        "config.ScenarioConfig": parse_config(export_config("d", chain, preset.meters)),
        "scenarios.Expected": Expected(1.0, "analytic"),
        "scenarios.ScenarioPreset": preset,
        "scenarios.CheckResult": check,
        "scenarios.VerificationReport": VerificationReport("difference", (check,)),
        "sampling.MeterSummary": trials.summary().meters[0],
        "sampling.TrialSummary": trials.summary(),
        "sampling.TrialSet": trials,
    }


def test_every_dataclass_has_an_instance_here():
    assert sorted(package_dataclasses()) == sorted(instances())


@pytest.mark.parametrize("name", sorted(package_dataclasses()))
def test_equality_and_hash_do_not_raise(name):
    obj = instances()[name]
    assert isinstance(obj, package_dataclasses()[name])
    assert obj == obj
    assert isinstance(obj == copy.copy(obj), bool)
    assert isinstance(hash(obj), int)
    assert len({obj, obj}) == 1


def test_array_holders_compare_by_identity():
    x = np.array([0.6, 0.8])
    a, b = qpathnet.StateVector(x), qpathnet.StateVector(x)
    assert a == a and a != b


def test_profiles_and_meters_compare_by_value():
    assert PointerProfile.gaussian(1.0) == PointerProfile.gaussian(1.0)
    assert PointerProfile.gaussian(1.0) != PointerProfile.gaussian(2.0)
    assert PointerProfile.gaussian(1.0) != PointerProfile.rectangular(1.0)
    assert len({PointerProfile.rectangular(0.5), PointerProfile.rectangular(0.5)}) == 1
    xs, values = [-1.0, 0.0, 1.0], [0.0, 1.0, 0.0]
    a, b = PointerProfile.tabulated(xs, values), PointerProfile.tabulated(list(xs), list(values))
    assert a == b and hash(a) == hash(b)
    assert a != PointerProfile.tabulated([-1.0, 0.0, 1.0 + 1e-12], values)
    f = PathFunctional.step_eigenvalue(0)
    assert MeterSpec(f, PointerProfile.gaussian(1.0)) == MeterSpec(f, PointerProfile.gaussian(1.0))
    assert len({MeterSpec(f, a), MeterSpec(f, b)}) == 1
