"""Figs 7–9 and the Section 1 energy claim: the paper's shapes, asserted.

Every test reads the session's one campaign (``paper_campaign``: all
eight panels as one batch at the reduced 50-peer scale of
:func:`benchmarks.conftest.bench_config`), prints what it checks and
asserts the paper's qualitative shape; no test simulates on its own.
CI's ``campaign`` job runs this module with ``REPRO_BENCH_JOBS=2``.

* Fig 7 — network traffic vs update interval / query interval / cache
  number: pull far above everything, RPCC-WC cheapest, RPCC-SC between
  pull and the push-like group.
* Fig 8 — query latency (log scale) vs the same three sweeps, read off
  the runs Fig 7 reads: push sits near half its invalidation interval,
  far above pull and RPCC, which share the sub-ten-second regime; weak
  RPCC is effectively instant.
* Fig 9 — RPCC(SC)'s invalidation TTL swept 1..7 in the single-source
  scenario (one item cached by every other peer), simple push and pull as
  references.  At TTL 1 the relay population is tiny and RPCC's traffic
  lands in pull territory; at larger TTLs traffic falls far below pull
  while the relay count and the answered-without-delay fraction grow.
* Energy — not a numbered figure, but an explicit claim: "the on-demand
  polling by cache nodes will consume more battery power" and cooperative
  caching gives "less communication overhead and energy consumption of
  mobile hosts".  Battery drain is charged per transmission/reception in
  :mod:`repro.energy`, so the claim is directly measurable on the Table 1
  point of the Fig 7(a) sweep.
"""

from repro.experiments.analysis import rpcc_traffic_split
from repro.experiments.figures import PANELS
from repro.experiments.runner import STRATEGY_SPECS
from repro.metrics.report import format_table

from benchmarks.conftest import bench_config


def _assert_fig7_shape(figure):
    for x in figure.x_values:
        pull = figure.value("pull", x)
        push = figure.value("push", x)
        sc = figure.value("rpcc-sc", x)
        wc = figure.value("rpcc-wc", x)
        assert pull > push, f"pull must out-traffic push at x={x}"
        assert pull > sc, f"RPCC-SC must save traffic vs pull at x={x}"
        assert wc < sc, f"weak RPCC must be cheaper than strong at x={x}"
        assert wc < pull / 2, f"weak RPCC must be far below pull at x={x}"


def _assert_fig8_shape(figure):
    for x in figure.x_values:
        push = figure.value("push", x)
        pull = figure.value("pull", x)
        sc = figure.value("rpcc-sc", x)
        wc = figure.value("rpcc-wc", x)
        assert push > 3 * pull, f"push latency must dominate pull at x={x}"
        assert push > 3 * sc, f"push latency must dominate RPCC-SC at x={x}"
        assert wc <= sc, f"weak RPCC can never be slower than strong at x={x}"


def _figure(paper_campaign, name):
    figures, _ = paper_campaign
    figure = figures[name]
    print()
    print(figure.format())
    return figure


def test_fig7a(paper_campaign):
    """Traffic vs update interval (Fig 7a)."""
    _assert_fig7_shape(_figure(paper_campaign, "fig7a"))


def test_fig7b(paper_campaign):
    """Traffic vs query (request) interval (Fig 7b)."""
    figure = _figure(paper_campaign, "fig7b")
    _assert_fig7_shape(figure)
    # Longer query gaps save pull the most: its curve must fall steeply.
    pull = figure.series["pull"]
    assert pull[0] > 2 * pull[-1]


def test_fig7c(paper_campaign):
    """Traffic vs cache number (Fig 7c)."""
    _, results = paper_campaign
    _assert_fig7_shape(_figure(paper_campaign, "fig7c"))
    # The paper's Fig 7(c) discussion: more cache peers shift RPCC traffic
    # from the pull share towards the push share.
    CACHE_NUMBERS = PANELS["fig7c"].sweep.axes["cache_num"]
    small = rpcc_traffic_split(results[("fig7c", "rpcc-sc", CACHE_NUMBERS[0])].summary)
    large = rpcc_traffic_split(results[("fig7c", "rpcc-sc", CACHE_NUMBERS[-1])].summary)
    print()
    print(f"RPCC-SC push share: {small.push_share:.2f} (C_Num="
          f"{CACHE_NUMBERS[0]}) -> {large.push_share:.2f} "
          f"(C_Num={CACHE_NUMBERS[-1]})")
    assert large.push_share > small.push_share


def test_fig8a(paper_campaign):
    """Latency vs update interval (Fig 8a)."""
    _assert_fig8_shape(_figure(paper_campaign, "fig8a"))


def test_fig8b(paper_campaign):
    """Latency vs query (request) interval (Fig 8b)."""
    _assert_fig8_shape(_figure(paper_campaign, "fig8b"))


def test_fig8c(paper_campaign):
    """Latency vs cache number (Fig 8c)."""
    _assert_fig8_shape(_figure(paper_campaign, "fig8c"))


def test_fig9a(paper_campaign):
    """Traffic vs invalidation TTL (Fig 9a)."""
    figure = _figure(paper_campaign, "fig9a")
    pull = figure.value("pull", 1.0)
    push = figure.value("push", 1.0)
    low_ttl = figure.value("rpcc-sc", 1.0)
    mid_ttl = figure.value("rpcc-sc", 3.0)
    # TTL=1: hardly any relays -> polls escalate to pull-style broadcasts,
    # costing far more than the working overlay at TTL>=3.  (How close it
    # gets to pull itself depends on the random source's neighbourhood;
    # see EXPERIMENTS.md.)
    assert low_ttl > 1.5 * mid_ttl
    # The overlay always saves substantially against pure pull...
    for ttl in figure.x_values:
        assert figure.value("rpcc-sc", ttl) < pull
    # ...but polls keep RPCC above pure push.
    assert push < mid_ttl


def test_fig9b(paper_campaign):
    """Latency vs invalidation TTL (Fig 9b)."""
    figure = _figure(paper_campaign, "fig9b")
    push = figure.value("push", 1.0)
    for ttl in figure.x_values:
        assert figure.value("rpcc-sc", ttl) < push / 2
    # More relays answer more queries without delay.
    assert figure.value("rpcc-sc", 7.0) <= figure.value("rpcc-sc", 1.0) * 1.5


def test_fig9_relay_population(paper_campaign):
    """The TTL's whole point: more hops heard -> more relay peers."""
    _, results = paper_campaign
    relays = {ttl: results[("fig9a", "rpcc-sc", ttl)].mean_relay_count
              for ttl in (1, 3, 7)}
    print()
    print("mean relay count by TTL:", relays)
    assert relays[1] < relays[3] <= relays[7] * 1.2
    # How steep the growth is depends on the random source's 1-hop
    # neighbourhood (see EXPERIMENTS.md); the direction is the claim.
    assert relays[7] > 1.5 * relays[1]


def test_energy_by_strategy(paper_campaign):
    """Fleet-wide energy drain for all six strategies, at Table 1 defaults."""
    _, runs = paper_campaign
    # The Fig 7(a) point at the default update interval is bench_config()
    # itself, so the six runs are already in the campaign.
    default = bench_config().update_interval
    results = {spec: runs[("fig7a", spec, default)] for spec in STRATEGY_SPECS}
    rows = [
        (
            spec,
            round(result.energy_consumed, 1),
            round(result.mean_battery_fraction, 3),
            result.summary.transmissions,
        )
        for spec, result in results.items()
    ]
    print()
    print(format_table(
        ("strategy", "energy (J)", "mean battery left", "tx"),
        rows,
        title="fleet energy over the measured window",
    ))
    # The paper's claim: pull's per-query flooding burns the most energy;
    # weak-consistency RPCC the least among the protocol-bearing runs.
    assert results["pull"].energy_consumed > results["push"].energy_consumed
    assert results["pull"].energy_consumed > results["rpcc-sc"].energy_consumed
    assert (
        results["rpcc-wc"].energy_consumed
        < results["rpcc-sc"].energy_consumed
    )
    # Energy tracks transmissions: the cheapest-traffic run keeps the
    # healthiest batteries.
    cheapest = min(results.values(), key=lambda r: r.summary.transmissions)
    assert cheapest.mean_battery_fraction == max(
        r.mean_battery_fraction for r in results.values()
    )
