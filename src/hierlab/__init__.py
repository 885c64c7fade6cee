"""hierlab: a desk-scale spectral laboratory for coupled hierarchies of
marginal density kernels on a periodic torus."""

__version__ = "0.1.0"

from .budget import BudgetExceeded, TensorBudget, default_budget
from .grid import (Field, GridSpec, bessel_multiply, dft_forward, dft_inverse,
                   free_propagate, inner, l2_norm, make_grid, normalized,
                   random_low_mode_field, sobolev_norm_field)
from .marginals import (HierarchyState, Marginal, admissibility_defect,
                        factorized_state, free_propagate_marginal,
                        hierarchy_norm, mixture_marginal, mixture_state,
                        partial_trace, psd_defect, pure_product_marginal,
                        sobolev_norm, symmetrize, trace, trace_sobolev_norm,
                        weakstar_metric, zero_marginal)
from .interactions import (PotentialSpec, bbgky_collision_main,
                           bbgky_main_level, bbgky_rhs,
                           bump_profile, collision_fourier_oracle,
                           delta_surrogate, gaussian_profile, gp_collision,
                           gp_collision_level, gp_collision_sum,
                           product_collision_level, realize_potential)
from .definetti import (Mixture, energy_functional_direct,
                        energy_functional_mixture, flow_mixture,
                        gwp_window_chain, nls_energy, nls_evolve,
                        random_mixture)
from .nbody import (NBodyState, energy_estimate_check, energy_moments,
                    extract_marginal, factorized_state as nbody_factorized_state,
                    hamiltonian_apply, nbody_evolve, symmetry_defect)
from .hierarchy_evolution import (EvolutionConfig, HierarchyTrajectory,
                                  InstabilityError, bbgky_evolve,
                                  check_series_budget, duhamel_tower, free_flow,
                                  gp_evolve, k_schedule, picard_fixed_point,
                                  t0_gate)
from .harness import ExperimentConfig, Report, run_experiment
from .storage import (read_field, read_marginal, read_mixture, write_field,
                      write_marginal, write_mixture)
