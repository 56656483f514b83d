"""Figure 1: persistence/uniqueness ellipses per scheme and distance.

For each signature scheme and distance function, the paper plots the mean
and standard deviation ("span ellipse") of persistence (between two
consecutive windows) and uniqueness (within the first window) over the
monitored population.  The expected shape: UT sits highest on uniqueness
and lowest on persistence, RWR^h the opposite, TT in between.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro import obs
from repro.core.distances import DISPLAY_NAMES, get_distance
from repro.core.properties import PropertyEllipse, property_ellipse
from repro.exceptions import ExperimentError
from repro.experiments.config import (
    NETWORK_K,
    QUERYLOG_K,
    ExperimentConfig,
    cell_engine as _cell_engine,
    consecutive_signature_maps,
    get_enterprise_dataset,
    get_querylog_dataset,
    make_schemes,
)
from repro.experiments.report import format_table
from repro.parallel import MapExecutor, parallel_map

#: Pair-sampling cap keeping the |V|^2 uniqueness enumeration tractable.
MAX_UNIQUENESS_PAIRS = 20000


def _dataset_setup(dataset: str, config: ExperimentConfig):
    """Resolve (graph pair, evaluation population, k) for a dataset name."""
    if dataset == "network":
        data = get_enterprise_dataset(config.scale)
        return data.graphs[0], data.graphs[1], data.local_hosts, NETWORK_K
    if dataset == "querylog":
        data = get_querylog_dataset(config.scale)
        return data.graphs[0], data.graphs[1], data.users, QUERYLOG_K
    raise ExperimentError(f"unknown dataset {dataset!r}; use 'network' or 'querylog'")


def _scheme_ellipses(
    task: Tuple[str, ExperimentConfig, str]
) -> List[PropertyEllipse]:
    """One grid cell of the parallel fan-out: all ellipses for one scheme.

    Module-level and config-driven so it pickles cleanly to worker
    processes; datasets are deterministic and cached per process.
    """
    dataset, config, scheme_label = task
    with obs.span("fig1.cell", scheme=scheme_label):
        graph_now, graph_next, population, k = _dataset_setup(dataset, config)
        scheme = make_schemes(k, config.reset_probability, config.rwr_hops)[scheme_label]
        signatures_now, signatures_next = consecutive_signature_maps(
            scheme,
            graph_now,
            graph_next,
            population,
            strategy=config.strategy,
            engine=_cell_engine(config),
        )
        return [
            property_ellipse(
                signatures_now,
                signatures_next,
                get_distance(distance_name),
                scheme_name=scheme_label,
                distance_name=DISPLAY_NAMES[distance_name],
                nodes=population,
                max_pairs=MAX_UNIQUENESS_PAIRS,
            )
            for distance_name in config.distances
        ]


def run_fig1(
    dataset: str = "network",
    config: ExperimentConfig | None = None,
    executor: MapExecutor | None = None,
) -> List[PropertyEllipse]:
    """Compute the Figure 1 ellipses for one dataset.

    Returns one :class:`PropertyEllipse` per (scheme, distance) pair, in
    scheme-major order.  The per-scheme cells fan out across processes
    when ``config.jobs`` > 1 (or through an injected ``executor``).
    """
    config = config or ExperimentConfig()
    _dataset_setup(dataset, config)  # validate the dataset name up front
    scheme_labels = list(make_schemes(1, config.reset_probability, config.rwr_hops))
    with obs.span("experiment.fig1", dataset=dataset):
        per_scheme = parallel_map(
            _scheme_ellipses,
            [(dataset, config, label) for label in scheme_labels],
            jobs=config.cell_jobs,
            executor=executor,
        )
    return [ellipse for ellipses in per_scheme for ellipse in ellipses]


def format_fig1(ellipses: List[PropertyEllipse], dataset: str = "network") -> str:
    """Render the ellipse centres/spans as the paper's per-distance panels."""
    rows = [
        [
            ellipse.scheme,
            ellipse.distance,
            ellipse.mean_persistence,
            ellipse.std_persistence,
            ellipse.mean_uniqueness,
            ellipse.std_uniqueness,
        ]
        for ellipse in ellipses
    ]
    return format_table(
        ["scheme", "distance", "mean_pers", "std_pers", "mean_uniq", "std_uniq"],
        rows,
        title=f"Figure 1 ({dataset}): signature persistence and uniqueness",
    )


def check_fig1_shape(ellipses: List[PropertyEllipse]) -> Dict[str, bool]:
    """The paper's qualitative claims about Figure 1, as named booleans.

    * ``ut_most_unique``: UT mean uniqueness >= TT >= every RWR^h.
    * ``rwr_most_persistent``: every RWR^h mean persistence >= TT >= UT.
    (Averaged over distance functions.)
    """
    by_scheme: Dict[str, List[PropertyEllipse]] = {}
    for ellipse in ellipses:
        by_scheme.setdefault(ellipse.scheme, []).append(ellipse)

    def mean_over_distances(scheme: str, attribute: str) -> float:
        values = [getattr(item, attribute) for item in by_scheme[scheme]]
        return sum(values) / len(values)

    # Near-ties flip with seed noise; allow the same small margin the
    # paper's overlapping ellipses imply.
    tolerance = 0.02
    rwr_labels = [label for label in by_scheme if label.startswith("RWR")]
    ut_uniqueness = mean_over_distances("UT", "mean_uniqueness")
    tt_uniqueness = mean_over_distances("TT", "mean_uniqueness")
    rwr_uniqueness = max(
        mean_over_distances(label, "mean_uniqueness") for label in rwr_labels
    )
    uniqueness_order = (
        ut_uniqueness >= tt_uniqueness - tolerance
        and tt_uniqueness >= rwr_uniqueness - tolerance
    )
    rwr_persistence = min(
        mean_over_distances(label, "mean_persistence") for label in rwr_labels
    )
    tt_persistence = mean_over_distances("TT", "mean_persistence")
    ut_persistence = mean_over_distances("UT", "mean_persistence")
    persistence_order = (
        rwr_persistence >= tt_persistence - tolerance
        and tt_persistence >= ut_persistence - tolerance
    )
    return {
        "ut_most_unique": bool(uniqueness_order),
        "rwr_most_persistent": bool(persistence_order),
    }
