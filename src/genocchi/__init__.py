"""Exact Bernoulli and generalized Genocchi numbers, with machine
verification of their divisibility and congruence properties."""

from .exact import (
    ConsistencyError,
    congruent_mod,
    coprime_part,
    factorize,
    is_prime,
)
from .series import (
    EgfSeries,
    exp_sum_series,
    idc_reciprocal_scaled,
    series_mul,
    series_reciprocal,
)
from .special import (
    BernoulliTable,
    bernoulli_table,
    gen_genocchi_bernoulli,
    gen_genocchi_table,
    genocchi_table,
    von_staudt_clausen_sum,
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
    load_bernoulli_cache,
    save_bernoulli_cache,
)

__version__ = "0.1.0"

__all__ = [
    "BernoulliTable",
    "CacheCorruptionError",
    "CacheError",
    "ConsistencyError",
    "EgfSeries",
    "GridFailure",
    "TheoremId",
    "VerificationReport",
    "bernoulli_table",
    "congruent_mod",
    "coprime_part",
    "exp_sum_series",
    "factorize",
    "gen_genocchi_bernoulli",
    "gen_genocchi_table",
    "genocchi_table",
    "get_or_build",
    "idc_reciprocal_scaled",
    "is_prime",
    "load_bernoulli_cache",
    "run_grid",
    "save_bernoulli_cache",
    "series_mul",
    "series_reciprocal",
    "von_staudt_clausen_sum",
]
