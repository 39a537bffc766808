"""divlab: risk functionals, induced divergences, and seeded verification.

The package computes law-invariant convex risk measures on finite
probability spaces (entropic, shortfall, optimized certainty equivalent,
expectation, essential supremum, coherent), the divergences they induce by
convex duality (relative entropy, phi*-divergences, shortfall divergences),
and runs randomized, replayable checks of the structural facts tying the
two together: duality, data processing, the chain rule and its one-sided
relaxations, shift-convexity of acceptance sets, and time consistency.
"""

from .consistency import SearchResult, counterexample_search
from .divergence import (
    DivergenceSpec,
    DualSolveResult,
    divergence_for_risk_spec,
    dual_divergence,
    phi_divergence,
    primal_reconstruction,
    relative_entropy,
    shortfall_divergence,
)
from .errors import DivLabError
from .kinds import CHECK_KINDS, consistency_gap
from .losses import ConjugateTable, LossFn, UtilityFn
from .prob import (
    FiniteDist,
    JointDist,
    Kernel,
    Partition,
    uniform,
)
from .report import (
    CheckReport,
    CheckSpec,
    SuiteConfig,
    Tolerances,
    emit_report,
    run_check,
    run_suite,
)
from .risk import (
    ConditionalRisk,
    RiskSpec,
    rho_batch,
    rho_conditional,
    rho_entropic,
    rho_lifted,
    rho_oce,
    rho_of_law,
    rho_shortfall,
)
from .samplers import ConditionalInstance
from .streams import SearchBudget

__version__ = "0.1.0"
