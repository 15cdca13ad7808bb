"""Fig 9 — impact of the invalidation TTL on RPCC(SC).

Single-source scenario (one item cached by every other peer), TTL swept
1..7, simple push and pull as references.  Asserted shapes: at TTL 1 the
relay population is tiny and RPCC's traffic lands in pull territory; at
larger TTLs traffic falls far below pull while the relay count and the
answered-without-delay fraction grow.
"""

from benchmarks.conftest import print_figure


def test_fig9a(benchmark, paper_campaign):
    """Traffic vs invalidation TTL (Fig 9a)."""
    figures, _ = paper_campaign
    figure = benchmark.pedantic(figures.get, ("fig9a",), rounds=1, iterations=1)
    print_figure(figure)
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


def test_fig9b(benchmark, paper_campaign):
    """Latency vs invalidation TTL (Fig 9b)."""
    figures, _ = paper_campaign
    figure = benchmark.pedantic(figures.get, ("fig9b",), rounds=1, iterations=1)
    print_figure(figure)
    push = figure.value("push", 1.0)
    for ttl in figure.x_values:
        assert figure.value("rpcc-sc", ttl) < push / 2
    # More relays answer more queries without delay.
    assert figure.value("rpcc-sc", 7.0) <= figure.value("rpcc-sc", 1.0) * 1.5


def test_fig9_relay_population(benchmark, paper_campaign):
    """The TTL's whole point: more hops heard -> more relay peers."""
    _, results = paper_campaign
    relays = benchmark.pedantic(
        lambda: {ttl: results[("fig9a", "rpcc-sc", ttl)].mean_relay_count
                 for ttl in (1, 3, 7)},
        rounds=1, iterations=1,
    )
    print()
    print("mean relay count by TTL:", relays)
    assert relays[1] < relays[3] <= relays[7] * 1.2
    # How steep the growth is depends on the random source's 1-hop
    # neighbourhood (see EXPERIMENTS.md); the direction is the claim.
    assert relays[7] > 1.5 * relays[1]
