"""Central defaults shared by the library and the CLI.

Every tunable that appears in a report is defined once here so that runs
are reproducible from (inputs, seed, version).
"""

# Search defaults
DEFAULT_DEPTH = 8
DEFAULT_TOL = 1e-6
DEFAULT_NODE_BUDGET = 10**7
DEFAULT_SEED = 0

# Numerical tolerances
ZERO_PROB_TOL = 1e-14        # probabilities below this count as zero
STATIONARITY_TOL = 1e-10     # ||pP - p||_inf
ROW_STOCHASTIC_TOL = 1e-12   # row sums of a transition matrix
RANK_TOL = 1e-10             # relative rank tolerance in algebra closure
INVARIANCE_TOL = 1e-8        # scale-relative subspace invariance residual
MEMBERSHIP_TOL = 1e-10       # polytope gauge membership
VERTEX_BUDGET = 10**4        # certification vertex cap
EXTREMALITY_TOL = 1e-6       # verdict tolerance for exact Lyapunov methods
# letters between rescales of a running product; path_log_norms advances
# a power-of-two block of letters per step and keeps this cadence
RENORM_EVERY = 32
