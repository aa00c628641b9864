"""Shared fixtures: the golden graphs exercised throughout the suite."""

from __future__ import annotations

import numpy as np
import pytest

from causal_reduce.graph import Dag, parse_graph

# Motivating-example family: original graph, its NI-projection target, the
# fully reduced graph, and the equivalent graph with one covariate edge
# reversed.
MOTIVATING_TEXT = """\
!treatment A
!outcome Y
A -> Y
I1 -> A
O1 -> Y
W4 -> I1
W4 -> O1
W2 -> W4
W3 -> W4
W1 -> W2
"""

MOTIVATING_SLIM_TEXT = """\
!treatment A
!outcome Y
A -> Y
W4 -> A
O1 -> Y
W4 -> O1
W3 -> W4
W2 -> W4
"""

MOTIVATING_REDUCED_TEXT = """\
!treatment A
!outcome Y
A -> Y
O1 -> Y
W2 -> O1
W3 -> O1
W2 -> A
W3 -> A
O1 -> A
"""

MOTIVATING_FLIPPED_TEXT = """\
!treatment A
!outcome Y
A -> Y
I1 -> A
O1 -> Y
W4 -> I1
W4 -> O1
W2 -> W4
W3 -> W4
W2 -> W1
"""

# Taxonomy illustration graph (13 vertices).
ZOO_TEXT = """\
!treatment A
!outcome Y
I2 -> A
A -> M1
M1 -> M2
M2 -> Y
O1 -> I2
O1 -> M1
M1 -> N1
Y -> N1
I1 -> I2
I1 -> A
W1 -> I1
W1 -> O3
O3 -> M1
O2 -> W1
O2 -> Y
M1 -> M3
M3 -> Y
O4 -> O1
O4 -> M1
"""

# Multiple-identifying-formulas graph (front-door + back-door).
FRONT_DOOR_TEXT = """\
!treatment A
!outcome Y
A -> M
M -> Y
O -> A
O -> Y
"""

# Single-mediator family: plain, randomized-on-O, and reversed-edge variants.
MEDIATOR_PLAIN_TEXT = """\
!treatment A
!outcome Y
A -> M
M -> Y
A -> Y
O -> M
"""

MEDIATOR_CONFOUNDED_TEXT = MEDIATOR_PLAIN_TEXT + "O -> A\n"

MEDIATOR_PAIR_TEXT = """\
!treatment A
!outcome Y
A -> M
M -> Y
A -> Y
Mp -> M
A -> Mp
"""

MEDIATOR_PAIR_FLIPPED_TEXT = """\
!treatment A
!outcome Y
A -> M
Y -> M
A -> Y
M -> Mp
A -> Mp
"""

# Two-adjustment-covariates family.
TWO_ADJUSTERS_TEXT = """\
!treatment A
!outcome Y
A -> Y
O1 -> A
O1 -> Y
O2 -> A
O2 -> Y
"""

TWO_ADJUSTERS_ROOT_TEXT = TWO_ADJUSTERS_TEXT + "W -> O1\nW -> O2\n"

TWO_ADJUSTERS_CHAINED_TEXT = TWO_ADJUSTERS_ROOT_TEXT + "O1 -> O2\n"

TWO_ADJUSTERS_CHAINED_REDUCED_TEXT = TWO_ADJUSTERS_TEXT + "O1 -> O2\n"

# Three-mediator family.
MEDIATOR_CHAIN_TEXT = """\
!treatment A
!outcome Y
A -> M1
M1 -> M2
M2 -> M3
M3 -> Y
M1 -> Y
M1 -> M3
I1 -> A
O1 -> A
O1 -> M1
O2 -> M1
"""

MEDIATOR_CHAIN_REDUCED_TEXT = """\
!treatment A
!outcome Y
A -> M1
M1 -> Y
O1 -> A
O1 -> M1
O2 -> M1
"""

# Twelve-vertex covariate web.
COVARIATE_WEB_TEXT = """\
!treatment A
!outcome Y
A -> Y
I1 -> A
W1 -> A
W1 -> I1
W1 -> O3
O3 -> Y
O1 -> Y
O1 -> A
W2 -> A
W2 -> O1
W3 -> W2
W4 -> W2
O2 -> Y
W5 -> O2
W5 -> O1
W5 -> W2
W5 -> W6
W6 -> O2
"""

COVARIATE_WEB_REDUCED_TEXT = """\
!treatment A
!outcome Y
A -> Y
O3 -> A
O3 -> Y
O1 -> Y
O1 -> A
W3 -> A
W4 -> A
W3 -> O1
W4 -> O1
O2 -> Y
W5 -> O2
W5 -> O1
W5 -> A
"""

TRIVIAL_TEXT = "!treatment A\n!outcome Y\nA -> Y\n"

GOLDEN_TEXTS = {
    "motivating": MOTIVATING_TEXT,
    "motivating_slim": MOTIVATING_SLIM_TEXT,
    "motivating_reduced": MOTIVATING_REDUCED_TEXT,
    "motivating_flipped": MOTIVATING_FLIPPED_TEXT,
    "zoo": ZOO_TEXT,
    "front_door": FRONT_DOOR_TEXT,
    "mediator_plain": MEDIATOR_PLAIN_TEXT,
    "mediator_confounded": MEDIATOR_CONFOUNDED_TEXT,
    "mediator_pair": MEDIATOR_PAIR_TEXT,
    "mediator_pair_flipped": MEDIATOR_PAIR_FLIPPED_TEXT,
    "two_adjusters": TWO_ADJUSTERS_TEXT,
    "two_adjusters_root": TWO_ADJUSTERS_ROOT_TEXT,
    "two_adjusters_chained": TWO_ADJUSTERS_CHAINED_TEXT,
    "two_adjusters_chained_reduced": TWO_ADJUSTERS_CHAINED_REDUCED_TEXT,
    "mediator_chain": MEDIATOR_CHAIN_TEXT,
    "mediator_chain_reduced": MEDIATOR_CHAIN_REDUCED_TEXT,
    "covariate_web": COVARIATE_WEB_TEXT,
    "covariate_web_reduced": COVARIATE_WEB_REDUCED_TEXT,
    "trivial": TRIVIAL_TEXT,
}

# Graphs exercised by the exact-law identity suites (<= 8 vertices).
LAW_SUITE = (
    "trivial",
    "motivating",
    "motivating_slim",
    "motivating_reduced",
    "front_door",
    "mediator_plain",
    "mediator_confounded",
    "mediator_pair",
    "two_adjusters",
    "two_adjusters_root",
    "two_adjusters_chained",
    "mediator_chain",
)


def golden(name: str) -> Dag:
    return parse_graph(GOLDEN_TEXTS[name])


# W -> O -> A, O -> Y, A -> Y with P(A=1 | O=0) = 0: the effect at level 1 is
# not identified, because the stratum O = 0 never receives that level.
POSITIVITY_HOLE_TEXT = "!treatment A\n!outcome Y\nW -> O\nO -> A\nO -> Y\nA -> Y\n"


def positivity_hole_law():
    from causal_reduce.bn import random_law

    g = parse_graph(POSITIVITY_HOLE_TEXT)
    bn = random_law(g, {v: 2 for v in g.vertices}, seed=11, epsilon=0.02)
    table = np.array(bn.cpts["A"])
    table[0] = (1.0, 0.0)
    return bn.with_cpt("A", table)


@pytest.fixture(scope="session")
def goldens() -> dict[str, Dag]:
    return {name: parse_graph(text) for name, text in GOLDEN_TEXTS.items()}


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
