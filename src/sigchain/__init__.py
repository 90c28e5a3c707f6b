"""sigchain: simulate direct-digital transmit chains driving symbols or qubits.

The package models a transmitter as a chain of envelope transforms: ideal
waveform synthesis (constellation mapping + pulse shaping, or gate-envelope
generation), a hardware architecture built from a shared impairment catalog,
and scoring either as a communication link (EVM and its budget) or as a qubit
gate (average gate fidelity and leakage), plus the calibration loops that
close the difference.
"""

from sigchain.modulation import (
    GateEnvelopeSpec,
    PulseShape,
    build_constellation,
)
from sigchain.chains import (
    StageSpec,
    TxChain,
    apply_stage,
    run_chain,
    synth_comm_waveform,
    synth_qubit_pulse,
)
from sigchain.metrics import LinkScorer, evm_budget
from sigchain.qubit import (
    GateSpec,
    QubitModel,
    average_gate_fidelity,
    propagate,
    target_unitary,
)
from sigchain.calibration import (
    dpd_fit,
    iq_cal,
    leakage_cancel,
    polar_delay_align,
    rabi_amplitude_cal,
)
from sigchain.scenario import (
    ConfigError,
    bundled_scenario_path,
    list_bundled_scenarios,
    read_config,
    run_calibration,
    run_scenario,
    run_sweep,
)

# What README's quick start imports, plus the entry points of runs
# (what the command line calls), of the calibration routines and of the
# stage registry
__all__ = [
    "GateEnvelopeSpec",
    "PulseShape",
    "build_constellation",
    "StageSpec",
    "TxChain",
    "apply_stage",
    "run_chain",
    "synth_comm_waveform",
    "synth_qubit_pulse",
    "LinkScorer",
    "evm_budget",
    "GateSpec",
    "QubitModel",
    "average_gate_fidelity",
    "propagate",
    "target_unitary",
    "dpd_fit",
    "iq_cal",
    "leakage_cancel",
    "polar_delay_align",
    "rabi_amplitude_cal",
    "ConfigError",
    "bundled_scenario_path",
    "list_bundled_scenarios",
    "read_config",
    "run_calibration",
    "run_scenario",
    "run_sweep",
]

__version__ = "0.1.0"
