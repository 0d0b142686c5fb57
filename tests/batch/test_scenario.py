"""Scenario validation: non-finite platform values are configuration errors."""

import math

import pytest

from repro.batch.scenario import Scenario
from repro.errors import ConfigurationError
from repro.fleet import synthesize_fleet
from repro.harvest.monitors import IdealMonitor

FIELDS = ("capacitance", "dt", "v_initial", "v_ckpt_margin", "v_on", "leakage")


def _payload():
    device = synthesize_fleet(2, seed=5, duration=5.0).devices[0]
    return Scenario.from_device(device, IdealMonitor()).to_dict()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", FIELDS)
def test_non_finite_rejected(field, value):
    payload = _payload()
    payload[field] = value
    with pytest.raises(ConfigurationError, match=field):
        Scenario.from_dict(payload)
