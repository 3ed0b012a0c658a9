"""Bichromatic closest-pair search in the Hamming metric.

Two lists of binary vectors, one pair planted at a known distance, and a
recursive bucketing solver that beats the quadratic scan on the parameter
ranges where theory says it should.  The package splits into:

- ``bitvec``:    packed bit matrices, blocks, permutations, seeded randomness
- ``generator``: weight models, planted instances and their on-disk format
- ``analysis``:  survival probabilities, runtime exponents, parameter choice
- ``solver``:    the bucketing solver plus the exhaustive baseline
- ``bench``:     timing harness with CSV output
- ``cli``:       the ``hambucket`` command
"""

from .bitvec import block_bounds, make_rng, random_permutation
from .analysis import (
    ExponentResult,
    binary_entropy,
    choose_params,
    delta_gamma_star,
    expected_pairs_exponent,
    inverse_entropy,
    lower_bound_exponent,
    theta_distribution,
    theta_uniform,
)
from .generator import DistributionModel, Instance, gen_instance, read_instance, write_instance
from .solver import (
    AT_MOST,
    EXACT,
    MatchPair,
    SolveReport,
    SolverParams,
    Strategy,
    deviation,
    naive_search,
    solve,
)

__version__ = "0.1.0"
