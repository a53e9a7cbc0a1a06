"""Supercritical branching processes in i.i.d. random environments.

Simulation of population trajectories, Hoeffding-type tail bounds for the
log-population walk, exact laws over state-count compositions and under the
annealed population kernel (the one exact population route; the
brute-force references it is tested against live in the tests), and Monte
Carlo verification with exact confidence intervals.
"""

__version__ = "0.1.0"

from .bounds import (BoundQuery, H, H_upper, Theorem1Params, dH_dx, log_H,
                     sn_tail_bound, theorem1_bound)
from .env import (AssumptionReport, CheckResult, ConfigError, EnvDistribution,
                  EnvState, ModelMoments, OffspringPmf, ResourceCapError,
                  check_assumptions, compute_moments, parse_env_config,
                  state_mean)
from .estimate import (BLOCK_TRIALS, DecayFit, IncrementStat, IncrementStats,
                       TailEstimate, binomial_ci, convergence_report,
                       fit_geometric_decay, mc_logw_increments, mc_tail_logzn,
                       mc_tail_sn, theorem1_candidates)
from .oracle import (exact_EWn, exact_logw_increments, exact_logZn_tail,
                     exact_sn_tail)
from .simulate import (RNG_ID, EnvTables, GenRecord, SimConfig, Trajectory,
                       simulate_trajectory, stream)

__all__ = [
    "AssumptionReport", "BLOCK_TRIALS", "BoundQuery", "CheckResult",
    "ConfigError", "DecayFit", "EnvDistribution", "EnvState", "EnvTables",
    "GenRecord", "H", "H_upper", "IncrementStat", "IncrementStats",
    "ModelMoments", "OffspringPmf", "ResourceCapError", "RNG_ID",
    "SimConfig", "TailEstimate", "Theorem1Params", "Trajectory",
    "binomial_ci", "check_assumptions", "compute_moments",
    "convergence_report", "dH_dx", "exact_EWn", "exact_logw_increments",
    "exact_logZn_tail", "exact_sn_tail", "fit_geometric_decay", "log_H",
    "mc_logw_increments", "mc_tail_logzn", "mc_tail_sn", "parse_env_config",
    "simulate_trajectory", "sn_tail_bound", "state_mean", "stream",
    "theorem1_bound", "theorem1_candidates",
]
