"""Simulation harness comparing plugin estimators on a confounded binary
outcome design.

The data-generating process lives on a six-vertex graph: two independent
uniform covariates drive a high-cardinality mixing covariate, which in turn
drives a binary adjustment covariate and the treatment propensity; the
outcome depends on treatment and the adjustment covariate through a logistic
link.  Three estimators of the interventional mean at treatment level 1 are
compared by ``n * variance`` across replications: the g-formula plugin on
the full graph, the g-formula plugin on the reduced graph (which drops the
mixing covariate), and the adjustment estimator.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .bn import ENUMERATION_LIMIT, DiscreteBn, EnumerationLimitError, derive_seed, sample
from .functionals import EmptyCellError, plugin_adjustment, plugin_g
from .graph import Dag
from .reduction import reduce

__all__ = [
    "SimConfig",
    "SimRow",
    "SimTable",
    "SkippedReplication",
    "build_benchmark_dgp",
    "run_simulation",
]

ESTIMATORS = ("adjustment", "g_plugin_full", "g_plugin_reduced")


@dataclass(frozen=True)
class SimConfig:
    """Design knobs: setting label, covariate cardinalities m and k, sample
    size, replication count and master seed.  A design whose mixing table
    over (W2, W3, W4), m * m * k cells, is past the guard is refused."""

    setting: str
    m: int
    k: int
    n: int
    replications: int
    seed: int

    def __post_init__(self):
        if self.setting not in ("a", "b"):
            raise ValueError("setting must be 'a' or 'b'")
        if self.m < 2:
            raise ValueError("m must be >= 2")
        if self.k <= 5:
            raise ValueError("k must exceed 5: the mixture needs states beyond the reserved 0..4")
        if self.n < 1 or self.replications < 1:
            raise ValueError("n and replications must be >= 1")
        cells = self.m * self.m * self.k
        if cells > ENUMERATION_LIMIT:
            raise EnumerationLimitError(
                f"a design with m={self.m}, k={self.k} needs a (W2, W3, W4) mixing table of "
                f"m*m*k = {cells} cells, past the limit of {ENUMERATION_LIMIT}: lower --m or --k"
            )


DEFAULTS = {"a": dict(m=5, k=50), "b": dict(m=50, k=10)}


@dataclass(frozen=True)
class SimRow:
    n: int
    estimator: str
    n_times_variance: float
    monte_carlo_se: float | None


@dataclass(frozen=True)
class SkippedReplication:
    """A replication that ``on_empty="skip"`` discarded: its index, the seed
    its sample was drawn with (``derive_seed(cfg.seed, index)``) and the
    first empty cell a plugin met on it."""

    index: int
    seed: int
    cell: tuple[str, tuple[int, ...]]


@dataclass(frozen=True)
class SimTable:
    rows: tuple[SimRow, ...]
    skips: tuple[SkippedReplication, ...] = ()
    estimates: dict[str, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def skipped_replications(self) -> int:
        return len(self.skips)


def _logistic(x: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def simulation_graph() -> Dag:
    return Dag(
        vertices=("W2", "W3", "W4", "O1", "A", "Y"),
        edges=(
            ("W2", "W4"),
            ("W3", "W4"),
            ("W4", "O1"),
            ("W4", "A"),
            ("O1", "Y"),
            ("A", "Y"),
        ),
        treatment="A",
        outcome="Y",
    )


def build_benchmark_dgp(cfg: SimConfig) -> DiscreteBn:
    """The exact data-generating network for the simulation design."""
    m, k = cfg.m, cfg.k
    g = simulation_graph()
    cards = {"W2": m, "W3": m, "W4": k, "O1": 2, "A": 2, "Y": 2}

    uniform_m = np.full(m, 1.0 / m)
    special = np.arange(k) < 5
    # mixture row when the two covariates disagree, proportional to a
    # logistic ramp on the non-special states
    ramp = _logistic((np.arange(k) + 1.0) / 5.0)
    q = np.where(special, 0.0, ramp)
    q = q / q.sum()
    unif5 = np.where(special, 0.2, 0.0)
    w4 = np.where(np.eye(m, dtype=bool)[:, :, None], unif5, q)

    o1 = np.empty((k, 2))
    o1[:, 1] = np.where(special, 0.99, 0.01)
    o1[:, 0] = 1.0 - o1[:, 1]

    a = np.empty((k, 2))
    a[:, 1] = _logistic((np.arange(k) + 1.0) / 5.0 - 2.0)
    a[:, 0] = 1.0 - a[:, 1]

    o, lvl = np.ogrid[0:2, 0:2]
    p1 = _logistic((o - 0.5) * (9 * lvl + 5))
    y = np.stack([1.0 - p1, p1], axis=-1)  # axes: O1, A, Y

    cpts = {"W2": uniform_m, "W3": uniform_m, "W4": w4, "O1": o1, "A": a, "Y": y}
    return DiscreteBn(g, cards, cpts)


def run_simulation(
    cfg: SimConfig,
    keep_estimates: bool = False,
    on_empty: str = "error",
) -> SimTable:
    """Replicate the three estimators and aggregate ``n * variance`` per
    estimator, with a Monte-Carlo standard error when more than one
    replication is available.  Deterministic given the config.

    ``on_empty`` decides what to do when a replication draws a sample on
    which some needed empirical conditional is undefined (e.g. a covariate
    pair that never co-occurred): ``"error"`` propagates the failure with
    its replication index; ``"skip"`` discards that replication, keeps
    drawing (continuing the seed sequence) until the configured count of
    estimable replications is reached, and records each one skipped in
    ``SimTable.skips``.
    """
    if on_empty not in ("error", "skip"):
        raise ValueError("on_empty must be 'error' or 'skip'")
    bn = build_benchmark_dgp(cfg)
    g_full = bn.graph
    g_reduced = reduce(g_full).output
    level = 1

    values = {name: np.empty(cfg.replications) for name in ESTIMATORS}
    done = 0
    skips: list[SkippedReplication] = []
    rep = 0
    while done < cfg.replications:
        if len(skips) > 10 * cfg.replications:
            raise EmptyCellError(
                f"gave up after skipping {len(skips)} replications", None
            )
        seed = derive_seed(cfg.seed, rep)
        ds = sample(bn, cfg.n, seed)
        rep += 1
        try:  # a replication that raises leaves slot `done` to the next one
            values["g_plugin_full"][done] = plugin_g(ds, g_full, level)
            values["g_plugin_reduced"][done] = plugin_g(ds, g_reduced, level)
            values["adjustment"][done] = plugin_adjustment(ds, g_full, {"O1"}, level)
        except EmptyCellError as exc:
            if on_empty == "skip":
                skips.append(SkippedReplication(rep - 1, seed, exc.cell))
                continue
            raise EmptyCellError(f"replication {rep - 1}: {exc}", exc.cell) from exc
        done += 1

    rows = []
    for name in ESTIMATORS:
        x = values[name]
        r = len(x)
        if r >= 2:
            var = float(x.var(ddof=1))
            centered = x - x.mean()
            mu4 = float((centered**4).mean())
            var_of_var = (mu4 - var**2 * (r - 3) / (r - 1)) / r
            se = cfg.n * float(np.sqrt(max(var_of_var, 0.0)))
        else:
            var = 0.0
            se = None
        rows.append(SimRow(cfg.n, name, cfg.n * var, se))
    return SimTable(
        tuple(rows),
        skips=tuple(skips),
        estimates=values if keep_estimates else None,
    )


def sim_table_to_dict(cfg: SimConfig, table: SimTable) -> dict:
    return {
        "setting": cfg.setting,
        "m": cfg.m,
        "k": cfg.k,
        "n": cfg.n,
        "replications": cfg.replications,
        "skipped_replications": table.skipped_replications,
        "skips": [
            {
                "index": skip.index,
                "seed": skip.seed,
                "cell": {"event": skip.cell[0], "states": list(skip.cell[1])},
            }
            for skip in table.skips
        ],
        "seed": cfg.seed,
        "rows": [asdict(row) for row in table.rows],
    }
