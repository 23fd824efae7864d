"""jsrkit: joint spectral radius bounds, finiteness certification, and
extremal ergodic measure verification for finite families of complex
matrices."""

from .bounds import (BoundsBracket, berger_wang_report, bounds_bracket,
                     pruned_search)
from .ergodic import (CorollaryReport, ExtremalityVerdict, LyapunovEstimate,
                      MainTheoremReport, corollary_reports,
                      extremality_verdict, finiteness_to_measure,
                      lyapunov_exact_finite, lyapunov_monte_carlo,
                      lyapunov_periodic, measure_to_finiteness)
from .extremal import (FinitenessCertificate, NormCertificate,
                       certify_finiteness, check_extremal_norm,
                       euclidean_certificate, norm_value)
from .matrix_core import (MatrixFamily, Word, averaged_norm_value,
                          averaged_spectral_value, operator_norm,
                          spectral_radius, word_product)
from .reduction import (ExtremalSubspace, ReductionResult, algebra_dimension,
                        block_triangularize, dominant_blocks,
                        extremal_subspace, find_invariant_subspace,
                        is_irreducible)
from .symbolic import (MarkovMeasure, PeriodicMeasure, PeriodicSequence,
                       check_stationarity, cylinder_probability,
                       is_density_point, shift, support_words)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
