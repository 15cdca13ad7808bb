"""Fig 9 — impact of the invalidation TTL on RPCC(SC).

Scenario (Section 5.3): one randomly selected source host whose item is
cached by every other peer; the invalidation TTL of RPCC is swept from 1
to 7 hops; simple push and pull are simulated once each as references.

Expected shapes: at TTL 1 the relay population is tiny and RPCC's traffic
approaches simple pull; at TTL 7 most cache peers can relay and RPCC
approaches simple push, while latency falls with TTL.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import SimulationConfig
from repro.experiments.executor import CampaignExecutor
from repro.experiments.figures.base import FigureData
from repro.experiments.runner import SimulationResult

__all__ = ["TTL_VALUES", "run_fig9", "fig9a", "fig9b"]

TTL_VALUES: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7)


def run_fig9(
    config: Optional[SimulationConfig] = None,
    ttls: Sequence[int] = TTL_VALUES,
    include_reference: bool = True,
    executor: Optional[CampaignExecutor] = None,
) -> Dict[str, object]:
    """Run the Fig 9 scenario once; both panels extract from this.

    Returns a dict with ``"rpcc"`` (ttl -> result), and optionally
    ``"push"``/``"pull"`` reference results.  The whole campaign (TTL
    sweep plus references) goes through ``executor`` in one batch, so a
    parallel or store-backed executor covers every point.
    """
    base = config if config is not None else SimulationConfig()
    if executor is None:
        executor = CampaignExecutor()
    unique_ttls: List[int] = []
    for ttl in ttls:
        if int(ttl) not in unique_ttls:
            unique_ttls.append(int(ttl))
    tasks = [
        (base.with_overrides(ttl_rpcc=ttl), "rpcc-sc", "single_source")
        for ttl in unique_ttls
    ]
    if include_reference:
        tasks.append((base, "push", "single_source"))
        tasks.append((base, "pull", "single_source"))
    outcomes = executor.run_many(tasks)
    rpcc_results: Dict[int, SimulationResult] = dict(
        zip(unique_ttls, outcomes[: len(unique_ttls)])
    )
    payload: Dict[str, object] = {"rpcc": rpcc_results, "ttls": list(ttls)}
    if include_reference:
        payload["push"], payload["pull"] = outcomes[len(unique_ttls):]
    return payload


def _panel(
    figure_id: str,
    title: str,
    y_label: str,
    metric,
    payload: Dict[str, object],
) -> FigureData:
    ttls = list(payload["ttls"])  # type: ignore[arg-type]
    rpcc_results: Dict[int, SimulationResult] = payload["rpcc"]  # type: ignore[assignment]
    series: Dict[str, list] = {
        "rpcc-sc": [metric(rpcc_results[int(ttl)]) for ttl in ttls]
    }
    for reference in ("push", "pull"):
        if reference in payload:
            value = metric(payload[reference])
            series[reference] = [value] * len(ttls)
    return FigureData(
        figure_id=figure_id,
        title=title,
        x_label="invalidation TTL (hops)",
        y_label=y_label,
        x_values=[float(ttl) for ttl in ttls],
        series=series,
    )


def fig9a(
    config: Optional[SimulationConfig] = None,
    ttls: Sequence[int] = TTL_VALUES,
    payload: Optional[Dict[str, object]] = None,
    executor: Optional[CampaignExecutor] = None,
) -> FigureData:
    """Traffic vs invalidation TTL."""
    if payload is None:
        payload = run_fig9(config, ttls, executor=executor)
    return _panel(
        "Fig 9(a)",
        "network traffic vs invalidation TTL",
        "transmissions",
        lambda result: float(result.summary.transmissions),
        payload,
    )


def fig9b(
    config: Optional[SimulationConfig] = None,
    ttls: Sequence[int] = TTL_VALUES,
    payload: Optional[Dict[str, object]] = None,
    executor: Optional[CampaignExecutor] = None,
) -> FigureData:
    """Latency vs invalidation TTL."""
    if payload is None:
        payload = run_fig9(config, ttls, executor=executor)
    return _panel(
        "Fig 9(b)",
        "query latency vs invalidation TTL",
        "mean hit latency (s)",
        lambda result: result.summary.mean_hit_latency,
        payload,
    )
