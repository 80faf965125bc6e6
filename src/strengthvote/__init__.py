"""Metric voting with coarse preference-strength reports.

Voters and candidates live in a metric space; a voter's preference strength
for the closer of two candidates is the distance ratio toward the farther
one. The rules here aggregate bucketed (or exact) strengths into pairwise
decisions whose social-cost distortion carries worst-case guarantees, and
the lab half of the package measures those guarantees on concrete instances.
"""

from .metric_core import (DuplicateCandidatePoint, MetricInstance, MetricViolation,
                          SameCandidate, UnknownId, build_instance, distance,
                          euclidean_instance, instance_to_doc, line_instance,
                          load_instance, matrix_instance, preference_strength,
                          save_instance, scale_instance, social_cost)
from .tallies import (INCLUSIVE, STRICT, ExactProfile, PairwiseTally, ThresholdScheme,
                      bucket_profile, exact_profile, pairwise_tally, tally_csv)
from .rules import (InvalidThreshold, PairwiseDecision, Rule, SchemeMismatch,
                    bound_value, condition1_holds, decide_pair, decide_profile,
                    decide_tally, lambda_coefficients, ratio_terms, rule4_decide, rule4_delta,
                    rule4_weights, rule5_weight)
from .tournament import (TournamentGraph, copeland_winner, graph_csv, majority_graph,
                         uncovered_set)
from .distortion_lab import (DistortionReport, IdealPoint, InvalidParams, PoleViolation,
                             actual_distortion, evaluate_instance, generate_lower_bound,
                             ideal_point, ideal_tradeoff_bound, lower_bound_target,
                             natural_rule, report_csv, rule3_counterexample)
from .search_oracle import (SearchConfig, adversarial_search, optimize_thresholds,
                            random_instance, verify_suite)

__version__ = "0.1.0"
