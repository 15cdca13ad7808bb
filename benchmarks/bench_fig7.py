"""Fig 7 — network traffic vs update interval / query interval / cache number.

Each bench reads one panel's rows (all six strategy curves) from the
session's campaign and asserts the paper's qualitative shape: pull far
above everything, RPCC-WC cheapest, RPCC-SC between pull and the
push-like group.
"""

from repro.experiments.figures import PANELS

from benchmarks.conftest import print_figure


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


def test_fig7a(benchmark, paper_campaign):
    """Traffic vs update interval (Fig 7a)."""
    figures, _ = paper_campaign
    figure = benchmark.pedantic(figures.get, ("fig7a",), rounds=1, iterations=1)
    print_figure(figure)
    _assert_fig7_shape(figure)


def test_fig7b(benchmark, paper_campaign):
    """Traffic vs query (request) interval (Fig 7b)."""
    figures, _ = paper_campaign
    figure = benchmark.pedantic(figures.get, ("fig7b",), rounds=1, iterations=1)
    print_figure(figure)
    _assert_fig7_shape(figure)
    # Longer query gaps save pull the most: its curve must fall steeply.
    pull = figure.series["pull"]
    assert pull[0] > 2 * pull[-1]


def test_fig7c(benchmark, paper_campaign):
    """Traffic vs cache number (Fig 7c)."""
    figures, results = paper_campaign
    figure = benchmark.pedantic(figures.get, ("fig7c",), rounds=1, iterations=1)
    print_figure(figure)
    _assert_fig7_shape(figure)
    # The paper's Fig 7(c) discussion: more cache peers shift RPCC traffic
    # from the pull share towards the push share.
    from repro.experiments.analysis import rpcc_traffic_split

    CACHE_NUMBERS = PANELS["fig7c"].values
    small = rpcc_traffic_split(results[("fig7c", "rpcc-sc", CACHE_NUMBERS[0])].summary)
    large = rpcc_traffic_split(results[("fig7c", "rpcc-sc", CACHE_NUMBERS[-1])].summary)
    print()
    print(f"RPCC-SC push share: {small.push_share:.2f} (C_Num="
          f"{CACHE_NUMBERS[0]}) -> {large.push_share:.2f} "
          f"(C_Num={CACHE_NUMBERS[-1]})")
    assert large.push_share > small.push_share
