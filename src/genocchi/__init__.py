"""Exact Bernoulli and generalized Genocchi numbers, with machine
verification of their divisibility and congruence properties."""

from .exact import ConsistencyError
from .special import (
    BernoulliTable,
    bernoulli_table,
    gen_genocchi_bernoulli,
    gen_genocchi_table,
)
from .verify import (
    GridFailure,
    TheoremId,
    VerificationReport,
    run_grid,
)
from .cache import (
    CacheCorruptionError,
    CacheError,
    get_or_build,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliTable",
    "CacheCorruptionError",
    "CacheError",
    "ConsistencyError",
    "GridFailure",
    "TheoremId",
    "VerificationReport",
    "bernoulli_table",
    "gen_genocchi_bernoulli",
    "gen_genocchi_table",
    "get_or_build",
    "run_grid",
]
