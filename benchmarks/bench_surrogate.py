"""Surrogate characterization speedup: the ``engine=`` acceptance benchmark.

Builds the ISSUE-8 workload: a 10^5-point DSE-shaped query stream over
the divider's supply lattice, answered two ways against the *same*
warm characterization cache — ``engine="exact"`` (every query resolved
through the fingerprint + two-layer cache) and ``engine="surrogate"``
with a certified surrogate covering the lattice.  Asserts the >=10x headline
floor, the certificate (fitted error <= tolerance, and every surrogate
answer within tolerance of the exact solve on the lattice), and that
``select_config(spice_validate=True)`` still runs its *exact* SPICE
cross-check with surrogate models present.  Results land in
``benchmarks/results/surrogate_speedup.txt`` (a CI artifact).
"""

import time

import pytest

pytest.importorskip("numpy")

from repro.dse.select import Requirements, select_config
from repro.spice.charlib import (
    CharacterizationCache,
    DividerSweep,
    characterize_many,
)
from repro.spice.surrogate import DEFAULT_TOLERANCE, fit_surrogate
from repro.tech import TECH_90NM

SPEEDUP_FLOOR = 10.0

#: Distinct supply points on the DSE lattice (each one exact solve to
#: warm the cache) and the total query-stream length.
LATTICE_POINTS = 256
TOTAL_QUERIES = 100_000
V_LO, V_HI = 1.0, 3.5


def _lattice():
    step = (V_HI - V_LO) / (LATTICE_POINTS - 1)
    return [
        DividerSweep(tech=TECH_90NM, voltages=(V_LO + i * step,))
        for i in range(LATTICE_POINTS)
    ]


def test_surrogate_speedup(results_dir, tmp_path):
    lattice = _lattice()
    # A DSE grid revisits the lattice: 10^5 queries over 256 designs.
    queries = [lattice[(i * 7919) % LATTICE_POINTS] for i in range(TOTAL_QUERIES)]

    cache = CharacterizationCache(cache_dir=str(tmp_path / "charlib"))
    start = time.perf_counter()
    exact_fill = characterize_many(lattice, engine="exact", cache=cache)
    t_fill = time.perf_counter() - start

    start = time.perf_counter()
    model = fit_surrogate(
        DividerSweep(tech=TECH_90NM, voltages=(V_LO, V_HI)), cache=cache
    )
    t_fit = time.perf_counter() - start
    assert model.certified_error <= model.tolerance

    # Exact warm baseline vs surrogate dispatch, same cache, best-of-3
    # interleaved so a load spike cannot land on one side only.
    t_exact = t_auto = float("inf")
    exact_results = auto_results = None
    for _ in range(3):
        start = time.perf_counter()
        exact_results = characterize_many(queries, engine="exact", cache=cache)
        t_exact = min(t_exact, time.perf_counter() - start)
        start = time.perf_counter()
        auto_results = characterize_many(queries, engine="surrogate", cache=cache)
        t_auto = min(t_auto, time.perf_counter() - start)
    speedup = t_exact / t_auto

    assert all(r.source == "exact" for r in exact_results)
    assert all(r.source == "surrogate" for r in auto_results)

    # The certificate, checked against every exact lattice solve.
    worst = 0.0
    by_fp = {r.fingerprint: r for r in exact_results}
    for sweep, exact in zip(lattice, exact_fill):
        [sur] = characterize_many([sweep], engine="surrogate", cache=cache)
        for qty in ("tap", "current"):
            for got, want in zip(getattr(sur, qty), getattr(exact, qty)):
                denom = max(abs(want), 1e-3 * model.scales[qty])
                worst = max(worst, abs(got - want) / denom)

    # Pareto-winner validation stays exact with surrogate models around.
    selection = select_config(TECH_90NM, Requirements(), spice_validate=True)
    assert selection.spice_check is not None
    assert selection.spice_check["oscillates"]

    lines = [
        "surrogate characterization vs warm-cache exact (10^5-query DSE stream)",
        f"  lattice: {LATTICE_POINTS} divider points {V_LO:.1f}-{V_HI:.1f} V, "
        f"{TECH_90NM.name}; {TOTAL_QUERIES} queries",
        f"  exact cache fill              {t_fill * 1e3:9.1f} ms",
        f"  surrogate fit + certify       {t_fit * 1e3:9.1f} ms  "
        f"({len(model.v_anchors)} anchors, {model.cert_points} held-out solves, "
        f"error {model.certified_error:.2%})",
        f"  exact (warm cache)            {t_exact * 1e3:9.1f} ms",
        f"  surrogate (certified)         {t_auto * 1e3:9.1f} ms  "
        f"speedup {speedup:5.1f}x  (floor {SPEEDUP_FLOOR:.0f}x)",
        f"  worst lattice disagreement    {worst:.2e}  "
        f"(certified tolerance {DEFAULT_TOLERANCE:.0e})",
        "  select_config(spice_validate=True): exact cross-check ok",
    ]
    (results_dir / "surrogate_speedup.txt").write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )
    print("\n" + "\n".join(lines))

    assert worst <= DEFAULT_TOLERANCE, (
        f"surrogate curve diverges {worst:.2e} from exact on the lattice — "
        f"above the certified {DEFAULT_TOLERANCE} tolerance"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"surrogate dispatch {speedup:.1f}x over warm-cache exact — "
        f"below the {SPEEDUP_FLOOR:.0f}x acceptance floor"
    )
    assert len(by_fp) == LATTICE_POINTS
