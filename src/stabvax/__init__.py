"""Stabilizing vaccine allocation for networked epidemic models."""

from .model import (CalibrationError, ContactStructure, DiseaseParams,
                    EpidemicState, InfeasibleRateError, NetworkInstance,
                    StabilityCertificate, build_demographic_coupling,
                    build_flow_matrix, calibrate_transmission,
                    check_decay_certificate, cholesky_factor, compute_b1,
                    coupling_gram_factor, effective_reproduction_number,
                    intrinsic_connectivity, project_contact_matrix)
from .allocator import (AllocationProblem, AllocationResult, CutPool,
                        InfeasibleAllocationError,
                        NotPositiveDefiniteError, SolverError, build_problem,
                        lmi_box_maximize, max_decay_binary_search,
                        solve_allocation, solve_bilinear, solve_diagonal_lmi,
                        spectral_box_minimize)
from .dynamics import (Trajectory, VaccinationSchedule,
                       apply_vaccination_event, integrate, rhs_covid,
                       rhs_covid_demographic, simulate_policy)
from .ingest import (EpidemicInstance, RawCases, RawMobility,
                     aggregate_contact_groups, build_travel_rates,
                     derive_disease_params, derive_initial_state, ifr_by_age,
                     load_instance, median_infectious_periods, save_instance,
                     synthetic_instance, two_node_case)
from .policies import PolicySpec, emit_doses, leftover_redistribute

__version__ = "0.1.0"
