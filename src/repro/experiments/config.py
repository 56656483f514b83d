"""Shared experiment configuration and cached dataset construction.

Two scales are provided:

``"paper"``
    Mirrors the paper's populations (300 hosts / 851 users, k = 10 / 3).
    Used by the benchmark suite.
``"small"``
    A fast miniature with the same structure, for the test suite and
    examples.

Datasets are deterministic functions of their parameters, so they are
cached per scale for the lifetime of the process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.scheme import SignatureScheme, create_scheme
from repro.datasets.enterprise import EnterpriseDataset, EnterpriseFlowGenerator, EnterpriseParams
from repro.datasets.querylog import QueryLogDataset, QueryLogGenerator, QueryLogParams
from repro.exceptions import ExperimentError

#: The paper's signature lengths: half the average out-degree per dataset.
NETWORK_K = 10
QUERYLOG_K = 3

#: The paper's reset probability for all reported RWR runs.
RESET_PROBABILITY = 0.1

#: Hop counts reported in Figures 1-3.
RWR_HOPS: Tuple[int, ...] = (3, 5, 7)


@dataclass(frozen=True)
class ExperimentConfig:
    """Bundle of knobs shared across experiment modules.

    ``jobs`` fans the (scheme x distance x window) experiment grid across
    worker processes via :mod:`repro.parallel`: ``1`` runs serially,
    ``N > 1`` uses up to ``N`` processes, ``0``/negative uses every CPU.
    Results are assembled in deterministic order regardless of ``jobs``.

    ``strategy`` picks how signature batches are computed: ``"serial"``
    in-process, or ``"shm"`` through the shared-memory engine
    (:mod:`repro.parallel.shm`) — the graph is published once and
    ``jobs`` workers recompute index ranges zero-copy.  With ``"shm"``
    the experiment grid itself runs serially (the worker pool is the
    parallelism), so ``jobs`` moves from grid cells to the engine;
    results are byte-identical either way.  ``"sketch"`` routes batches
    through the memory-budgeted sketch tier
    (:mod:`repro.streaming.tier`, ``sketch_budget_bytes`` of state):
    hot sources exact, tail sketched — an accuracy contract, so
    experiment outputs *do* depend on it (that dependence is the point
    of sketch-tier experiments).
    """

    scale: str = "paper"
    distances: Tuple[str, ...] = ("jaccard", "dice", "sdice", "shel")
    reset_probability: float = RESET_PROBABILITY
    rwr_hops: Tuple[int, ...] = RWR_HOPS
    jobs: int = 1
    strategy: str = "serial"
    sketch_budget_bytes: int = 2097152

    def __post_init__(self) -> None:
        if self.scale not in ("paper", "small"):
            raise ExperimentError(f"unknown scale {self.scale!r}; use 'paper' or 'small'")
        if self.strategy not in ("serial", "shm", "sketch"):
            raise ExperimentError(
                f"unknown strategy {self.strategy!r}; use 'serial', 'shm' or 'sketch'"
            )
        if self.sketch_budget_bytes < 1:
            raise ExperimentError(
                f"sketch_budget_bytes must be >= 1, got {self.sketch_budget_bytes}"
            )

    @property
    def cell_jobs(self) -> int:
        """Process fan-out for grid cells: ``jobs`` under the serial
        strategy, ``1`` under ``"shm"`` (the engine's pool owns the CPUs
        — nesting a grid pool over it would oversubscribe)."""
        return 1 if self.strategy == "shm" else self.jobs


_ENTERPRISE_PARAMS: Dict[str, EnterpriseParams] = {
    "paper": EnterpriseParams(),
    # The small scale shrinks populations only; the behavioural knobs
    # (activity, skew, noise, drift) stay at the calibrated defaults so the
    # paper's qualitative shapes survive the downscaling.
    "small": EnterpriseParams(
        num_hosts=60,
        num_external=600,
        num_services=10,
        num_windows=3,
        num_alias_users=6,
        seed=7,
    ),
}

_QUERYLOG_PARAMS: Dict[str, QueryLogParams] = {
    "paper": QueryLogParams(),
    "small": QueryLogParams(
        num_users=80,
        num_tables=120,
        num_windows=3,
        mean_queries=60.0,
        seed=11,
    ),
}


@functools.lru_cache(maxsize=None)
def get_enterprise_dataset(scale: str = "paper") -> EnterpriseDataset:
    """The enterprise flow dataset for a scale (cached; deterministic)."""
    if scale not in _ENTERPRISE_PARAMS:
        raise ExperimentError(f"unknown scale {scale!r}")
    return EnterpriseFlowGenerator(_ENTERPRISE_PARAMS[scale]).generate()


@functools.lru_cache(maxsize=None)
def get_querylog_dataset(scale: str = "paper") -> QueryLogDataset:
    """The query-log dataset for a scale (cached; deterministic)."""
    if scale not in _QUERYLOG_PARAMS:
        raise ExperimentError(f"unknown scale {scale!r}")
    return QueryLogGenerator(_QUERYLOG_PARAMS[scale]).generate()


def consecutive_signature_maps(
    scheme: SignatureScheme,
    graph_now,
    graph_next,
    population,
    strategy: str = "serial",
    engine=None,
):
    """Signature maps for a consecutive window pair, each computed in full.

    The two window graphs are built separately from disjoint time ranges,
    so nearly every edge differs between them: a delta (dirty-set)
    recompute of the second map would redo almost every node and pay for
    the change tracking on top.  ``strategy``/``engine`` are forwarded to
    ``compute_all`` so the batches can run on the shared-memory worker
    pool, or through the budgeted sketch tier.  ``"shm"`` is
    byte-identical to the plain serial recompute; ``"sketch"`` is not —
    it answers under the tier's accuracy contract.
    """
    kwargs = {"strategy": strategy, "engine": engine} if strategy != "serial" else {}
    signatures_now = scheme.compute_all(graph_now, population, **kwargs)
    signatures_next = scheme.compute_all(graph_next, population, **kwargs)
    return signatures_now, signatures_next


def cell_engine(config: ExperimentConfig):
    """Compute engine for an experiment grid cell (``None`` when the
    strategy is serial).

    Under ``"shm"``, cells share the process-wide
    :func:`repro.parallel.shm.default_engine` sized to ``config.jobs`` —
    one persistent worker pool and one graph publication serve every
    (scheme, distance) cell of the grid.  Under ``"sketch"``, cells share
    the process-wide :func:`repro.streaming.tier.default_engine` at the
    configured byte budget.
    """
    if config.strategy == "shm":
        from repro.parallel.shm import default_engine

        return default_engine(config.jobs)
    if config.strategy == "sketch":
        from repro.streaming.tier import default_engine

        return default_engine(config.sketch_budget_bytes)
    return None


def make_schemes(
    k: int,
    reset_probability: float = RESET_PROBABILITY,
    hops: Tuple[int, ...] = RWR_HOPS,
    include_rwr: bool = True,
) -> Dict[str, SignatureScheme]:
    """The paper's scheme line-up: TT, UT and RWR_c^h for each ``h``.

    Keys follow the paper's labels (``"TT"``, ``"UT"``, ``"RWR^3"``...).
    """
    schemes: Dict[str, SignatureScheme] = {
        "TT": create_scheme("tt", k=k),
        "UT": create_scheme("ut", k=k),
    }
    if include_rwr:
        for hop_count in hops:
            schemes[f"RWR^{hop_count}"] = create_scheme(
                "rwr", k=k, reset_probability=reset_probability, max_hops=hop_count
            )
    return schemes


def application_schemes(k: int, reset_probability: float = RESET_PROBABILITY) -> Dict[str, SignatureScheme]:
    """The three-scheme line-up used by the application experiments.

    Section IV settles on RWR^3 as "the best representative of the RWR
    schemes"; Figures 5 and 6 compare TT, UT and that representative.
    """
    return {
        "TT": create_scheme("tt", k=k),
        "UT": create_scheme("ut", k=k),
        "RWR": create_scheme("rwr", k=k, reset_probability=reset_probability, max_hops=3),
    }
