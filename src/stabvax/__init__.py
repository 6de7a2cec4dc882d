"""Stabilizing vaccine allocation for networked epidemic models.

The package runs on numpy alone: the eigen-solves use numpy.linalg, and the
Kelley cutting-plane LPs use a small in-package dual simplex. scipy is only
a test oracle, so no command pays for importing it.

Importing the package loads none of its modules: an exported name loads its
module on first use (PEP 562). `stabvax.cli` loads `model`, `ingest` and
`bubar`, which build every instance, and each command the rest it needs.
"""

import importlib

# each exported name under the module that defines it
_EXPORTS = {
    "model": ("CalibrationError", "ContactStructure", "DiseaseParams",
              "EpidemicState", "GramKernel", "InfeasibleAllocationError",
              "InfeasibleRateError", "NetworkInstance", "SolverError",
              "StabilityCertificate", "build_flow_matrix",
              "calibrate_transmission", "check_decay_certificate",
              "cholesky_factor", "compute_b1", "coupling_gram_kernel",
              "effective_reproduction_number", "intrinsic_connectivity"),
    "allocator": ("AllocationProblem", "AllocationResult", "CutPool",
                  "build_problem", "lmi_box_maximize",
                  "max_decay_binary_search", "solve_allocation",
                  "solve_bilinear", "spectral_box_minimize"),
    "dynamics": ("Trajectory", "VaccinationSchedule", "integrate",
                 "simulate_policy"),
    "ingest": ("EpidemicInstance", "build_travel_rates",
               "derive_disease_params", "derive_initial_state", "ifr_by_age",
               "load_instance", "save_instance", "synthetic_instance",
               "two_node_case"),
    "policies": ("PolicySpec", "emit_doses"),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)

__version__ = "0.1.0"


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__),
                            name)
            globals()[name] = value  # later reads skip this hook
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
