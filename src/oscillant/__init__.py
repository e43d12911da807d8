"""Stability analysis and direct simulation of semilinear hyperbolic systems
with large high-frequency source terms."""

from .numeric import DEFAULT_POLICY, InputError, MultiplicityError, NumericalError, NumericPolicy
from .system import BilinearMap, Phase, SystemSpec, load_spec, save_spec
from .spectral import (AsymptoticSlopes, SpectralField, assemble_symbol,
                       asymptotic_slopes, eigendecompose_field, uniform_grid)
from .dispersion import match_phases_on_dispersion
from .resonance import (ResonanceReport, characteristic_harmonics, find_resonances,
                        resonance_phase)
from .interaction import (PolarizationVectors, ReportInputs, RootCouplings, StabilityReport,
                          partial_transparency_conditions, polarization_vectors,
                          root_couplings, stability_report, transparency_check,
                          unstable_datum_direction)
from .flow import FlowTrajectory, InteractionMatrix, integrate_flow, verify_growth_bound
from .wkb import (WKBSolution, consistency_residual, pde_residual, solve_transport,
                  weak_transparency_check)
from .simulate import (AmplitudeProfile, SimConfig, SimulationRun, amplitude_norms,
                       epsilon_sweep, run_instability_experiment)
from .experiments import analyze, flow_bound_experiment, run_simulation, run_sweep

__version__ = "0.1.0"
