"""Device-level validation: the analytic models against the circuit
simulator (the role LTspice plays for the paper's analytical model).

These run a real transient of a transistor-level ring and DC solves of
the transistor divider, then check the analytic layer's predictions.
Marked slow-ish: a handful of seconds total.
"""

import pytest

from repro.analog import RingOscillator, VoltageDivider
from repro.analog.divider import build_divider_circuit, divider_tap_node
from repro.analog.ring_oscillator import build_ro_circuit, staggered_initial_condition
from repro.spice import dc_operating_point, transient
from repro.tech import ALL_NODES, TECH_90NM


class TestRingAtDeviceLevel:
    @pytest.mark.parametrize("vdd", [0.9, 1.2])
    def test_transient_oscillates_near_analytic_frequency(self, vdd):
        n = 5
        analytic = RingOscillator(TECH_90NM, n)
        f_pred = analytic.frequency(vdd)
        circuit = build_ro_circuit(TECH_90NM, n, vdd)
        period = 1.0 / f_pred
        res = transient(
            circuit,
            t_stop=6 * period,
            dt=period / 80,
            initial=staggered_initial_condition(n, vdd),
        )
        f_meas = res.node("s0").frequency(vdd / 2)
        # The analytic model is a lumped approximation; agreement within
        # ~2x validates the trend (the enrollment step absorbs absolute
        # offsets in the real system).
        assert 0.4 < f_meas / f_pred < 2.5

    def test_device_level_frequency_increases_with_vdd(self):
        n = 5
        freqs = []
        for vdd in (0.8, 1.1):
            circuit = build_ro_circuit(TECH_90NM, n, vdd)
            f_pred = RingOscillator(TECH_90NM, n).frequency(vdd)
            period = 1.0 / f_pred
            res = transient(
                circuit, t_stop=6 * period, dt=period / 80,
                initial=staggered_initial_condition(n, vdd),
            )
            freqs.append(res.node("s0").frequency(vdd / 2))
        assert freqs[1] > freqs[0]

    def test_bad_ring_length_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            build_ro_circuit(TECH_90NM, 4, 1.0)


class TestDividerAtDeviceLevel:
    @pytest.mark.parametrize("v_supply", [1.8, 2.7, 3.6])
    @pytest.mark.parametrize("tech", ALL_NODES, ids=lambda tech: tech.name)
    def test_unloaded_tap_near_ratio(self, tech, v_supply):
        div = VoltageDivider(tech, 1, 3, upper_width=1.0)
        circuit = build_divider_circuit(div, v_supply)
        op = dc_operating_point(circuit)
        tap = op[divider_tap_node(div)]
        assert tap == pytest.approx(v_supply / 3, abs=0.08)

    def test_disabled_divider_floats_down(self):
        div = VoltageDivider(TECH_90NM, 1, 3, upper_width=1.0)
        circuit = build_divider_circuit(div, 3.0, enabled=False)
        op = dc_operating_point(circuit)
        # With the foot switch open virtually no current flows, so the
        # stack drops almost nothing across each diode: the tap floats
        # toward the supply and the foot node carries it all.
        assert op["foot"] > 1.0

    def test_loaded_tap_droops_like_analytic(self):
        div = VoltageDivider(TECH_90NM, 1, 3, upper_width=4.0)
        load_r = 2e5
        circuit = build_divider_circuit(div, 3.0, load_resistance=load_r)
        op = dc_operating_point(circuit)
        tap_loaded = op[divider_tap_node(div)]

        unloaded = dc_operating_point(build_divider_circuit(div, 3.0))
        tap_unloaded = unloaded[divider_tap_node(div)]
        assert tap_loaded < tap_unloaded

        # Analytic droop with the simulated load current agrees in sign
        # and rough magnitude.
        i_load = tap_loaded / load_r
        analytic = div.loaded_output(3.0, i_load)
        droop_sim = tap_unloaded - tap_loaded
        droop_analytic = div.nominal_output(3.0) - analytic
        assert droop_analytic == pytest.approx(droop_sim, rel=2.0, abs=0.15)
