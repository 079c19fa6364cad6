"""Collective arbitrage detection and cooperative super-replication pricing
for finite multi-agent markets, in exact rational arithmetic."""

from .arbitrage import (ArbitrageCertificate, MeasureVector, detect_NA_agent,
                        detect_NA_global, detect_NCA, emm_coordinate_range,
                        emm_is_singleton, find_emm_vector, martingale_polytope,
                        polar_witness)
from .cones import (ExchangeCone, cone_add, cone_contains, make_grouping,
                    make_rays, make_span, make_Y0, make_zero, spans_equal)
from .errors import FairnessUnavailable, InternalInvariantError, ValidationError
from .ext import Ext
from .market import (Filtration, GainsGenerator, MarketModel, PayoffMatrix,
                     PriceProcess, ProbSpace, build_market,
                     coarsest_adapted_filtration, gains_basis, payoff_matrix)
from .model_io import ModelFile, load_model, parse_cone, parse_model
from .pricing import (ClaimVector, FairnessResult, PriceCompatibility,
                      PrimalOptimizer, claim_vector, dual_rho_Y,
                      fairness_allocation, pi_N_plus, pi_Y_minus, pi_Y_plus,
                      price_compatibility, rho_agent_plus, rho_agent_plus_dual,
                      rho_full_market, rho_N_minus, rho_N_plus, rho_Y_minus,
                      rho_Y_plus, rho_under_measure, value_of_cooperation)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
