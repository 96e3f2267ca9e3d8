"""Core of the reproduction: pseudorandom sketches (Mishra & Sandler 2006).

The module layout mirrors the paper:

* :mod:`repro.core.params` — the bias ``p`` and every derived constant;
* :mod:`repro.core.prf` — the public p-biased pseudorandom function ``H``;
* :mod:`repro.core.sketch` — Algorithm 1 (user-side sketching);
* :mod:`repro.core.estimator` — Algorithm 2 (aggregator-side queries);
* :mod:`repro.core.combine` — Appendix F (union-of-subsets queries);
* :mod:`repro.core.partition` — contiguous user-range sharding helpers;
* :mod:`repro.core.exact` — exact publish-probability analysis (Lemma 3.3);
* :mod:`repro.core.accountant` — multi-sketch budgets (Corollary 3.4).
"""

from .accountant import (
    BudgetExceeded,
    PrivacyAccountant,
    RelaxedPrivacyAccountant,
    ReleaseRecord,
)
from .combine import (
    CombinedEstimate,
    combine_mixed_bits,
    combine_aligned_bits,
    combine_from_weight_counts,
    combine_sketch_groups,
    combine_virtual_bits,
    condition_number,
    mixed_perturbation_matrix,
    perturbation_matrix,
    solve_weight_counts,
    transition_probability,
    weight_histogram,
)
from .partition import (
    merge_columns,
    range_bounds,
    split_columns_at,
    split_columns_by_user_range,
    user_universe,
)
from .estimator import QueryEstimate, SketchEstimator
from .functional import FunctionEstimator, FunctionSketcher, ProfileFunction
from .exact import (
    PublishDistribution,
    average_publish_probability,
    consider_probability,
    exact_failure_probability,
    publish_probability,
    worst_case_ratio,
)
from .params import PrivacyParams, epsilon_for_p, p_for_epsilon
from .prf import (
    BiasedFunction,
    BiasedPRF,
    CounterPRF,
    TrueRandomOracle,
    encode_input,
    prf_from_spec,
)
from .sketch import CollectionCoins, Sketch, SketchFailure, Sketcher, UserCoins

__all__ = [
    "BiasedFunction",
    "BiasedPRF",
    "BudgetExceeded",
    "CollectionCoins",
    "CombinedEstimate",
    "CounterPRF",
    "FunctionEstimator",
    "FunctionSketcher",
    "PrivacyAccountant",
    "ProfileFunction",
    "PrivacyParams",
    "PublishDistribution",
    "QueryEstimate",
    "RelaxedPrivacyAccountant",
    "ReleaseRecord",
    "Sketch",
    "SketchEstimator",
    "SketchFailure",
    "Sketcher",
    "TrueRandomOracle",
    "UserCoins",
    "average_publish_probability",
    "combine_mixed_bits",
    "combine_aligned_bits",
    "combine_from_weight_counts",
    "combine_sketch_groups",
    "combine_virtual_bits",
    "condition_number",
    "consider_probability",
    "encode_input",
    "epsilon_for_p",
    "exact_failure_probability",
    "merge_columns",
    "mixed_perturbation_matrix",
    "p_for_epsilon",
    "perturbation_matrix",
    "prf_from_spec",
    "publish_probability",
    "range_bounds",
    "solve_weight_counts",
    "split_columns_at",
    "split_columns_by_user_range",
    "transition_probability",
    "user_universe",
    "weight_histogram",
    "worst_case_ratio",
]
