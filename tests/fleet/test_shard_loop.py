"""The one fleet shard loop: ``iter_shards`` under all three callers.

``FleetRunner.run`` (one shard of the whole fleet), ``stream_fleet``
and the serve ``fleet`` job all run devices through
:func:`repro.fleet.stream.iter_shards`; any shard size must yield the
per-device results the exact run reports.
"""

import pytest

from repro.errors import ConfigurationError
from repro.fleet import CalibrationCache, FleetRunner, stream_fleet, synthesize_fleet
from repro.fleet.stream import iter_shards
from repro.trace import TraceRecorder


@pytest.fixture(scope="module")
def fleet():
    return synthesize_fleet(7, seed=17, duration=20.0)


@pytest.fixture(scope="module")
def exact(fleet):
    return [r.to_dict() for r in FleetRunner(fleet).run().report.results]


def _shards(fleet, **kwargs):
    options = dict(
        shard_size=len(fleet),
        parallel=1,
        cache=CalibrationCache(),
        eval_engine="auto",
        label="test",
    )
    options.update(kwargs)
    return iter_shards(fleet.devices, **options)


def _never_pulled():
    raise AssertionError("the device source must not be pulled")
    yield  # pragma: no cover


class TestIterShards:
    @pytest.mark.parametrize("shard_size", [1, 3, None])
    def test_any_shard_size_matches_the_exact_run(self, fleet, exact, shard_size):
        size = len(fleet) if shard_size is None else shard_size
        shards = list(_shards(fleet, shard_size=size))
        assert [len(shard) for shard, _ in shards][:-1] == [size] * (len(shards) - 1)
        flat = [r.to_dict() for _shard, results in shards for r in results]
        assert flat == exact
        for shard, results in shards:
            assert [r.device_id for r in results] == [d.device_id for d in shard]

    def test_unsampled_devices_yield_none(self, fleet, exact):
        by_id = {r["device_id"]: r for r in exact}
        seen = skipped = 0
        for shard, results in _shards(fleet, shard_size=3, sample=0.5, sample_seed=4):
            assert len(results) == len(shard)
            for device, result in zip(shard, results):
                seen += 1
                if result is None:
                    skipped += 1
                else:
                    assert result.to_dict() == by_id[device.device_id]
        assert seen == len(fleet) and 0 < skipped < len(fleet)

    def test_per_device_cache_lookup(self, fleet):
        cache = CalibrationCache()
        list(_shards(fleet, shard_size=2, cache=cache))
        unique = len(fleet.calibration_keys())
        assert (cache.stats.hits, cache.stats.misses) == (len(fleet) - unique, unique)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"eval_engine": "bogus"}, "unknown eval engine"),
            ({"parallel": 0}, "parallel"),
            ({"shard_size": 0}, "shard_size"),
            ({"sample": 0.0}, "sample fraction"),
        ],
    )
    def test_validates_before_pulling_devices(self, kwargs, match):
        options = dict(
            shard_size=4, parallel=1, cache=CalibrationCache(), eval_engine="auto"
        )
        options.update(kwargs)
        with pytest.raises(ConfigurationError, match=match):
            iter_shards(_never_pulled(), label="test", **options)


class TestCallers:
    def test_run_counts_per_device_cache_hits(self, fleet):
        result = FleetRunner(fleet).run()
        unique = len(fleet.calibration_keys())
        assert result.cache_summary == (
            f"{len(fleet) - unique} hits, {unique} misses, 0 from disk"
        )

    @pytest.mark.parametrize("sample", [0.01, 1.0])
    def test_stream_rejects_bad_engine_before_recording(self, fleet, sample):
        rec = TraceRecorder()
        with pytest.raises(ConfigurationError, match="unknown eval engine"):
            stream_fleet(fleet.devices, eval_engine="bogus", sample=sample, record=rec)
        assert rec.header is None
