"""Desk-scale numerical verification of volume inequalities for zonoids of
isotropic sphere measures, sphere transport bounds, John positions, and
stability of the reverse isoperimetric inequality."""

from .measures import (AtomicMeasure, IsotropyReport, cap_mass, check_isotropy,
                       cross_measure, equiangular_measure,
                       isotropic_measure_from_directions, measure_from_json,
                       second_moment_matrix, solve_isotropic_weights,
                       unit_vector)
from .caps import (beta_dr, cap_dichotomy, dvoretzky_rogers_caps,
                   find_dense_subcap, perturbed_determinant_bound,
                   verify_isotropic_cap_bound)
from .bodies import (BodyRep, VolumeResult, body_from_json, cross_polytope_body,
                     cube_body, unit_ball_volume, volume, zonotope_volume)
from .zonoids import (body_Zp, body_Zp_star, norm_Zp_star, reference_volume,
                      support_Zp, volume_Zp_star_ball_integral, zonoid_volumes)
from .transport import (p2est_bound, phi_p, phi_p_derivatives, psi_p,
                        psi_p_derivatives, rho_p, verify_derivative_box,
                        verify_second_derivative_bounds)
from .ballbarthe import (DecompositionSystem, ball_inequality,
                         random_decomposition_system, subset_expansion,
                         theta_star, vector_estimate, xab_gap)
from .metrics import (CrossFit, TransportPlan, banach_mazur, deep_hole,
                      fit_cross_frame, hausdorff_spherical, hausdorff_to_cross,
                      volume_distance, wasserstein, wasserstein_hausdorff_bound,
                      wasserstein_to_cross)
from .john import (Ellipsoid, bmkzw_check, contact_measure,
                   cube_sandwich_check, isoperimetric_ratio, john_ellipsoid,
                   xi_region_certificate)
from .harness import (StabilityReport, perturbation_family, planar_suite,
                      reverse_isoperimetric_suite, s1_sharp_suite,
                      theorem_B_suite, zpmustab_consistency)

__version__ = "0.1.0"
