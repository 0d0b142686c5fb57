"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.core import FailureSentinels, FSConfig
from repro.tech import TECH_130NM, TECH_90NM, TECH_65NM
from repro.units import kilo, micro


@pytest.fixture(scope="session", autouse=True)
def _isolated_charlib_cache(tmp_path_factory):
    """Point the process-wide characterization cache at a session tmp
    dir: the suite never reads or writes the user's real cache."""
    from repro.spice import charlib

    saved = os.environ.get(charlib.CACHE_ENV)
    os.environ[charlib.CACHE_ENV] = str(tmp_path_factory.mktemp("charlib"))
    charlib._DEFAULT_CACHE = None
    yield
    if saved is None:
        os.environ.pop(charlib.CACHE_ENV, None)
    else:
        os.environ[charlib.CACHE_ENV] = saved
    charlib._DEFAULT_CACHE = None


@pytest.fixture(params=["130nm", "90nm", "65nm"])
def tech(request):
    """Parametrize a test over all three technology nodes."""
    return {"130nm": TECH_130NM, "90nm": TECH_90NM, "65nm": TECH_65NM}[request.param]


@pytest.fixture
def tech90():
    return TECH_90NM


@pytest.fixture
def standard_config():
    """A mid-range, known-realizable monitor configuration."""
    return FSConfig(
        tech=TECH_90NM,
        ro_length=7,
        counter_bits=8,
        t_enable=micro(2),
        f_sample=kilo(5),
        nvm_entries=49,
        entry_bits=8,
    )


@pytest.fixture
def enrolled_monitor(standard_config):
    fs = FailureSentinels(standard_config)
    fs.enroll()
    return fs
