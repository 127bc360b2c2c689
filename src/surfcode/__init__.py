"""surfcode: topological qubits in holed planar stabilizer lattices.

Builds holed checkerboard lattices, verifies their ground-space
structure exactly, compares the perturbative tunneling formulas against
exact diagonalization, and simulates the initialization / gate /
readout workflow on the effective pseudo-spin chain, plus the
thermal-error model.
"""

__version__ = "0.1.0"

from .lattice import (FieldMask, HoledLattice, HoleSpec, LatticeError,
                      PathMetrics, build_lattice, field_mask,
                      lattice_from_config, path_metrics)
from .pauli import (LogicalPair, PauliError, PauliString, commutes,
                    ground_degeneracy, logical_pair, multiply, rank_gf2)
from .spectra import (DispersionParams, SpectraError, Spectrum,
                      SpinHamiltonian, assemble, fermion_dispersion,
                      fermion_gap, ground_splitting, logical_expectation,
                      lowest_eigs, vortex_dispersion, vortex_gap)
from .effective import (AdiabaticSchedule, ChainTemplate, EffectiveChain,
                        EffectiveError, GateSchedule, PseudoSpinState,
                        adiabatic_init, build_chain, evolve, hadamard_gate,
                        pi8_gate, rotation_gate, rotation_unitary)
from .measure import (EntangledState, InterferencePaths, MeasureError,
                      MeasurementPlan, fermion_readout, forward_readouts,
                      interference_amplitude, parameter_error, reconstruct,
                      sample_readouts, tomography_plan, vortex_readout)
from .decoherence import (DecoherenceError, SafetyReport, ThermalParams,
                          crossover_sweep, crossover_temperature,
                          decoherence_time, effective_mass, safe_to_operate,
                          tunneling_exponent)
