"""Dynamical quantity competition on supply graphs, with stability
analysis and cooperation games for the transit players."""

from .cournot import marginal_profit, profit, vector_field
from .dynamics import (IntegrationBlowUp, LongRunVerdict, Outcome, Trajectory,
                       classify, integrate, step_euler, step_rk4)
from .network import (AffineSystem, NetworkSpec, canonical_edge_order,
                      to_affine, validate, variable_names)
from .pdgame import (PayoffMatrix, PlayerGraph, PopulationState,
                     all_cooperate, all_defect, apply_side_payment,
                     complete_graph, cycle_graph, dominant_strategy,
                     imitation_step, min_side_payment, payoffs, player_graph,
                     random_population, run_spatial, scores, single_defector,
                     torus_graph)
from .scenario import (CanonicalScenario, NetworkScenario, PDScenario,
                       ScenarioError, parse_scenario)
from .stability import (CanonicalParams, NoUniqueEquilibriumError, Stability,
                        StabilityReport, analyze, canonical_affine,
                        char_poly, closed_form_coeffs, eigen_margin,
                        equilibrium, symmetric_conditions,
                        symmetric_equilibrium)

__version__ = "0.1.0"
