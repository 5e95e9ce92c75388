"""Numerical toolkit for invariant tori of commuting vector fields.

Builds section return maps around invariant k-tori, computes monodromy
spectra and Floquet decompositions, continues tori in parameters via
Newton correctors, and classifies bifurcations at critical multipliers.
"""

__version__ = "0.1.0"

from .bifurcation import (BifurcationEvent, CrossingBracket, MultiplierPaths,
                          ProbeOptions, ProbeReport, analyze_branch,
                          classify_event, detect_crossings,
                          postcritical_probe, track_multipliers,
                          CASE_A, CASE_B, CASE_C, DEGENERATE)
from .catalog import (CatalogSystem, HamiltonianPair, StraightenedSpec,
                      build_catalog_system, hamiltonian_family,
                      hamiltonian_field, make_flip, make_hopf, make_neimark,
                      make_pitchfork, make_straightened,
                      make_uncoupled_oscillators, poisson_bracket)
from .config import RunConfig, build_run, load_config, parse_config
from .continuation import (ContinuationBranch, ContinuationOptions,
                           NewtonResult, TorusReconstruction,
                           continue_branch, newton_fixed_point,
                           reconstruct_torus)
from .core import (Field, TorusSeed, VectorFieldFamily, lie_bracket,
                   loop_field, verify_commuting_family,
                   verify_torus_invariance, wrap_angles)
from .errors import (ConfigError, DegenerateTangent, MatchingAmbiguityWarning,
                     NoConvergence, NonCommuting, NonFinite, NothingFound,
                     OpenLoop, OpenTorus, PnkError, Resonance,
                     SingularGeometry, SingularJacobian, SingularMonodromy,
                     StepFailure, ZeroClass)
from .floquet import (FloquetDecomposition, ForcedResponse, FundamentalMatrix,
                      LinearizedCoefficients, block_spectrum_check,
                      extract_linearization, floquet_decompose,
                      forced_response, fundamental_matrix)
from .flow import FlowResult, integrate_flow, integrate_variational
from .section import (BasePointCheck, MonodromyReport, ReturnSolve,
                      SectionFrame, TransversalMapResult,
                      basepoint_spectrum_check, build_section,
                      monodromy_report, solve_return_times, total_monodromy,
                      transversal_linearization, transversal_map)

__all__ = [name for name in dir() if not name.startswith("_")]
