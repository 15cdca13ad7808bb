"""Fig 8 — query latency (log scale) vs the same three sweeps as Fig 7.

Reads the latency column of the runs Fig 7 reads.  Shape: push sits near
half its invalidation interval, far above pull and RPCC, which share the
sub-ten-second regime; weak RPCC is effectively instant.
"""

from benchmarks.conftest import print_figure


def _assert_fig8_shape(figure):
    for x in figure.x_values:
        push = figure.value("push", x)
        pull = figure.value("pull", x)
        sc = figure.value("rpcc-sc", x)
        wc = figure.value("rpcc-wc", x)
        assert push > 3 * pull, f"push latency must dominate pull at x={x}"
        assert push > 3 * sc, f"push latency must dominate RPCC-SC at x={x}"
        assert wc <= sc, f"weak RPCC can never be slower than strong at x={x}"


def test_fig8a(benchmark, paper_campaign):
    """Latency vs update interval (Fig 8a)."""
    figures, _ = paper_campaign
    figure = benchmark.pedantic(figures.get, ("fig8a",), rounds=1, iterations=1)
    print_figure(figure)
    _assert_fig8_shape(figure)


def test_fig8b(benchmark, paper_campaign):
    """Latency vs query (request) interval (Fig 8b)."""
    figures, _ = paper_campaign
    figure = benchmark.pedantic(figures.get, ("fig8b",), rounds=1, iterations=1)
    print_figure(figure)
    _assert_fig8_shape(figure)


def test_fig8c(benchmark, paper_campaign):
    """Latency vs cache number (Fig 8c)."""
    figures, _ = paper_campaign
    figure = benchmark.pedantic(figures.get, ("fig8c",), rounds=1, iterations=1)
    print_figure(figure)
    _assert_fig8_shape(figure)
