"""Stabilizing vaccine allocation for networked epidemic models.

The package runs on numpy alone: the eigen-solves use numpy.linalg, and the
Kelley cutting-plane LPs use a small in-package dual simplex. scipy is only
a test oracle, so no command pays for importing it.
"""

from .model import (CalibrationError, ContactStructure, DiseaseParams,
                    EpidemicState, GramKernel, InfeasibleRateError,
                    NetworkInstance, StabilityCertificate, build_flow_matrix,
                    calibrate_transmission, check_decay_certificate,
                    cholesky_factor, compute_b1, coupling_gram_kernel,
                    effective_reproduction_number, intrinsic_connectivity)
from .allocator import (AllocationProblem, AllocationResult, CutPool,
                        InfeasibleAllocationError, SolverError, build_problem,
                        lmi_box_maximize, max_decay_binary_search,
                        solve_allocation, solve_bilinear,
                        spectral_box_minimize)
from .dynamics import (Trajectory, VaccinationSchedule, integrate,
                       simulate_policy)
from .ingest import (EpidemicInstance, build_travel_rates,
                     derive_disease_params, derive_initial_state, ifr_by_age,
                     load_instance, save_instance, synthetic_instance,
                     two_node_case)
from .policies import PolicySpec, emit_doses

__version__ = "0.1.0"
