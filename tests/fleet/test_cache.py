"""The shared calibration cache against cold enrollment."""

import dataclasses

import pytest

from repro.core.monitor import FailureSentinels
from repro.errors import ConfigurationError
from repro.fleet import CalibrationCache, build_record
from repro.harvest.monitors import (
    fs_low_power_config,
    fs_low_power_monitor,
)

LP_KEY = ("90nm", "fs_lp", ())


class TestColdBuild:
    def test_matches_direct_monitor_model(self):
        """The cached model is the one the single-device API builds."""
        record = build_record(LP_KEY)
        direct = fs_low_power_monitor()
        assert record.model == direct

    def test_curve_matches_cold_enrollment(self):
        record = build_record(LP_KEY)
        fs = FailureSentinels(fs_low_power_config())
        table = fs.enroll()
        assert record.curve == tuple((p.count, p.voltage) for p in table.points)
        assert len(record.curve) > 10

    def test_parameter_free_kinds(self):
        for kind in ("ideal", "comparator", "adc"):
            record = build_record(("90nm", kind, ()))
            assert record.curve == ()
            assert record.model.current >= 0.0

    def test_custom_fs_params(self):
        params = (
            ("counter_bits", 8),
            ("entry_bits", 8),
            ("f_sample", 1000.0),
            ("nvm_entries", 49),
            ("ro_length", 7),
            ("t_enable", 2e-6),
        )
        record = build_record(("90nm", "fs", params))
        # Same design as the LP corner, so the same physics comes out.
        lp = build_record(LP_KEY)
        assert record.model.current == pytest.approx(lp.model.current)
        assert record.curve == lp.curve

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            build_record(("90nm", "psychic", ()))


class TestMemoization:
    def test_second_hit_returns_same_object(self):
        cache = CalibrationCache()
        first = cache.get(LP_KEY)
        second = cache.get(LP_KEY)
        assert second is first
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_disabled_cache_always_rebuilds(self):
        cache = CalibrationCache(enabled=False)
        first = cache.get(LP_KEY)
        second = cache.get(LP_KEY)
        assert second is not first
        assert second == first  # same values, no sharing
        assert cache.stats.misses == 2
        assert len(cache) == 0

    def test_distinct_keys_distinct_records(self):
        cache = CalibrationCache()
        lp = cache.get(LP_KEY)
        hp = cache.get(("90nm", "fs_hp", ()))
        assert lp.model != hp.model
        assert len(cache) == 2


class TestDiskLayer:
    def test_roundtrip_across_cache_instances(self, tmp_path):
        cache_dir = str(tmp_path / "calib")
        warm = CalibrationCache(cache_dir=cache_dir)
        stored = warm.get(LP_KEY)
        assert warm.stats.misses == 1

        cold = CalibrationCache(cache_dir=cache_dir)
        loaded = cold.get(LP_KEY)
        assert cold.stats.disk_hits == 1
        assert cold.stats.misses == 0
        assert loaded == stored

    @pytest.mark.parametrize(
        "payload",
        [
            b"not a pickle",
            b"",
            b"cno_such_module\nRecord\n.",            # ModuleNotFoundError
            b"crepro.fleet.cache\nNoSuchRecord\n.",   # AttributeError
            b"c__builtin__\nint\n(S'x'\ntR.",        # ValueError
            b"c__builtin__\nint\n(I1\nI2\nI3\ntR.",  # TypeError
        ],
        ids=["garbage", "empty", "missing-module", "missing-attr", "value", "type"],
    )
    def test_corrupt_file_falls_back_to_build(self, tmp_path, payload):
        cache_dir = str(tmp_path / "calib")
        warm = CalibrationCache(cache_dir=cache_dir)
        warm.get(LP_KEY)
        for path in (tmp_path / "calib").iterdir():
            path.write_bytes(payload)
        cold = CalibrationCache(cache_dir=cache_dir)
        record = cold.get(LP_KEY)
        assert record == warm.get(LP_KEY)
        assert cold.stats.misses == 1

    def test_recalibrated_card_misses_disk(self, tmp_path, monkeypatch):
        """A disk record is keyed by the card it enrolled on: after the
        90 nm card changes, a fresh cache on the same directory must
        rebuild, not serve the old enrollment."""
        from repro.tech import ptm

        key = ("90nm", "fs", (("f_sample", 5000.0),))
        cache_dir = str(tmp_path / "calib")
        old = CalibrationCache(cache_dir=cache_dir).get(key)
        card = ptm._BY_NAME["90nm"]
        monkeypatch.setitem(
            ptm._BY_NAME, "90nm", dataclasses.replace(card, k_delay=card.k_delay * 1.5)
        )
        fresh = CalibrationCache(cache_dir=cache_dir)
        record = fresh.get(key)
        assert fresh.stats.disk_hits == 0
        assert fresh.stats.misses == 1
        assert record == build_record(key)
        assert record.model != old.model
