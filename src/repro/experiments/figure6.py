"""Figure 6: end-to-end delay of unicast and broadcast messages.

The paper measures the cumulative distribution of the end-to-end delay of
unicast messages and of broadcast messages to 3 and to 5 destinations
(averaged over the destinations), and fits the unicast curve with the
bi-modal uniform distribution used as the SAN model's ``t_net`` input
(§5.1).  This generator reproduces the micro-benchmark on the simulated
cluster and reports both the CDFs and the fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.registry import ExperimentContext, ExperimentSpec, register
from repro.experiments.runner import ReplicationPlan, SweepPoint
from repro.experiments.settings import ExperimentSettings
from repro.sanmodels.parameters import BimodalFit, SANParameters
from repro.stats.cdf import EmpiricalCDF

if TYPE_CHECKING:
    from repro.core.measurement import EndToEndDelayResult

#: Quantiles reported in the textual rendering and the artifacts.
REPORT_PROBABILITIES: Tuple[float, ...] = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


@dataclass
class Figure6Result:
    """End-to-end delay distributions (the series of Figure 6)."""

    unicast_delays: List[float]
    broadcast_delays_by_n: Dict[int, List[float]]
    unicast_fit: BimodalFit

    def unicast_cdf(self) -> EmpiricalCDF:
        """CDF of the unicast end-to-end delays."""
        return EmpiricalCDF(self.unicast_delays)

    def broadcast_cdf(self, n_processes: int) -> EmpiricalCDF:
        """CDF of the broadcast-to-(n-1) end-to-end delays."""
        return EmpiricalCDF(self.broadcast_delays_by_n[n_processes])

    def san_parameters(self, t_send_ms: float = 0.025) -> SANParameters:
        """SAN network parameters derived from these measurements (§5.1).

        Equal to :meth:`SANParameters.from_measured_delays` over the same
        delays, but reuses :attr:`unicast_fit` instead of fitting the
        unicast samples again; only the broadcast curves are fitted here.
        """
        broadcast_fits = sorted(
            (n, BimodalFit.from_samples(delays))
            for n, delays in self.broadcast_delays_by_n.items()
        )
        return SANParameters(
            t_send_ms=t_send_ms,
            t_receive_ms=t_send_ms,
            unicast_fit=self.unicast_fit,
            broadcast_fits=tuple(broadcast_fits),
        )

    def rows(self, probabilities: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)) -> List[Tuple[str, List[float]]]:
        """Quantile rows suitable for a textual rendering of Figure 6."""
        unicast = self.unicast_cdf()
        rows: List[Tuple[str, List[float]]] = [
            ("unicast", [unicast.quantile(p) for p in probabilities])
        ]
        for n, delays in sorted(self.broadcast_delays_by_n.items()):
            cdf = EmpiricalCDF(delays)
            rows.append((f"broadcast to {n}", [cdf.quantile(p) for p in probabilities]))
        return rows


def _figure6_point(
    settings: ExperimentSettings, n_processes: int, point_seed: int
) -> EndToEndDelayResult:
    """One Figure 6 point: the delay micro-benchmark on an n-process cluster."""
    from repro.core.measurement import measure_end_to_end_delays

    config = settings.cluster_for(n_processes, point_seed)
    return measure_end_to_end_delays(config, probes=settings.delay_probes)


def figure6_plan(
    settings: ExperimentSettings,
    broadcast_process_counts: Sequence[int] = (3, 5),
) -> ReplicationPlan:
    """The Figure 6 sweep: one point per broadcast cluster size."""
    points = tuple(
        SweepPoint.make(
            _figure6_point,
            kwargs={"settings": settings, "n_processes": n},
            indices=(6, index),
            label=f"figure6 n={n}",
        )
        for index, n in enumerate(broadcast_process_counts)
    )
    return ReplicationPlan(settings=settings, points=points, name="figure6")


def aggregate_figure6(
    settings: ExperimentSettings,
    pairs: Iterable[Tuple[SweepPoint, Any]],
) -> Figure6Result:
    """Assemble the Figure 6 result from streamed ``(point, result)`` pairs."""
    broadcast_delays: Dict[int, List[float]] = {}
    unicast_delays: List[float] = []
    for point, result in pairs:
        n = dict(point.kwargs)["n_processes"]
        broadcast_delays[n] = result.broadcast_delays
        # The unicast delay does not depend on n; pool the probes from all
        # cluster sizes to smooth the CDF (the paper plots a single curve).
        unicast_delays.extend(result.unicast_delays)
    fit = BimodalFit.from_samples(unicast_delays)
    return Figure6Result(
        unicast_delays=unicast_delays,
        broadcast_delays_by_n=broadcast_delays,
        unicast_fit=fit,
    )


def run_figure6(
    settings: ExperimentSettings | None = None,
    broadcast_process_counts: Sequence[int] = (3, 5),
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
) -> Figure6Result:
    """Run the Figure 6 micro-benchmark.

    Parameters
    ----------
    settings:
        Experiment scale (defaults to the environment-selected preset).
    broadcast_process_counts:
        Cluster sizes for which the broadcast delay is measured (the paper
        uses 3 and 5).
    jobs:
        Worker processes for the sweep (1 = serial, 0/None = one per CPU).
    cache_dir:
        Optional on-disk result cache.
    """
    context = ExperimentContext.create(settings, jobs=jobs, cache_dir=cache_dir)
    return run_figure6_in(context, broadcast_process_counts)


def run_figure6_in(
    context: ExperimentContext,
    broadcast_process_counts: Sequence[int] = (3, 5),
) -> Figure6Result:
    """Context-based entry point (shared with composite experiments)."""
    plan = figure6_plan(context.settings, broadcast_process_counts)
    return aggregate_figure6(context.settings, context.iter(plan))


def format_figure6(result: Figure6Result) -> str:
    """Render Figure 6 as a quantile table (one row per curve)."""
    probabilities = REPORT_PROBABILITIES
    header = "curve              " + "  ".join(f"p{int(p * 100):02d}" for p in probabilities)
    lines = [header]
    for label, quantiles in result.rows(probabilities):
        values = "  ".join(f"{q:0.3f}" for q in quantiles)
        lines.append(f"{label:<18} {values}")
    lines.append(
        "unicast bi-modal fit: "
        f"U[{result.unicast_fit.low1:.3f}, {result.unicast_fit.high1:.3f}] w.p. {result.unicast_fit.p1:.2f}, "
        f"U[{result.unicast_fit.low2:.3f}, {result.unicast_fit.high2:.3f}] w.p. {1 - result.unicast_fit.p1:.2f}"
    )
    return "\n".join(lines)


def figure6_record(result: Figure6Result) -> Dict[str, Any]:
    """The JSON artifact data of Figure 6."""
    fit = result.unicast_fit
    return {
        "quantile_probabilities": list(REPORT_PROBABILITIES),
        "curves": [
            {"label": label, "quantiles_ms": list(quantiles)}
            for label, quantiles in result.rows(REPORT_PROBABILITIES)
        ],
        "unicast_fit": {
            "low1_ms": fit.low1,
            "high1_ms": fit.high1,
            "p1": fit.p1,
            "low2_ms": fit.low2,
            "high2_ms": fit.high2,
        },
        "samples": {
            "unicast": len(result.unicast_delays),
            "broadcast_by_n": {
                n: len(delays) for n, delays in sorted(result.broadcast_delays_by_n.items())
            },
        },
    }


def figure6_rows(result: Figure6Result):
    """The CSV series of Figure 6: one row of quantiles per curve."""
    header = ["curve", *(f"p{int(p * 100):02d}_ms" for p in REPORT_PROBABILITIES)]
    rows = [
        [label, *quantiles] for label, quantiles in result.rows(REPORT_PROBABILITIES)
    ]
    return header, rows


SPEC = register(
    ExperimentSpec(
        name="figure6",
        description="Fig. 6: end-to-end delay CDFs of unicast and broadcast messages",
        build_plan=figure6_plan,
        aggregate=aggregate_figure6,
        render_text=format_figure6,
        to_record=figure6_record,
        to_rows=figure6_rows,
    )
)
