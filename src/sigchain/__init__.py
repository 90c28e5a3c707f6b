"""sigchain: simulate direct-digital transmit chains driving symbols or qubits.

The package models a transmitter as a chain of envelope transforms: ideal
waveform synthesis (constellation mapping + pulse shaping, or gate-envelope
generation), a hardware architecture built from a shared impairment catalog,
and scoring either as a communication link (EVM and its budget) or as a qubit
gate (average gate fidelity and leakage), plus the calibration loops that
close the difference.
"""

from sigchain.envelope import (
    ComplexEnvelope,
    PolarTracks,
    Spectrum,
    make_envelope,
    to_polar,
    from_polar,
    fractional_delay,
    windowed_fft,
)
from sigchain.modulation import (
    Constellation,
    GateEnvelopeSpec,
    PulseShape,
    SymbolStream,
    build_constellation,
    gate_envelope,
    map_bits,
    shape_symbols,
    with_peak,
)
from sigchain.chains import (
    StageSpec,
    TxChain,
    apply_stage,
    run_chain,
    synth_comm_waveform,
    synth_qubit_pulse,
)
from sigchain.metrics import (
    BudgetReport,
    EvmReport,
    LinkScorer,
    demodulate,
    evm,
    evm_budget,
    eye_metrics,
    image_rejection,
    psd_welch,
    spurs_sfdr,
)
from sigchain.qubit import (
    GateSpec,
    QubitModel,
    average_gate_fidelity,
    bloch_trajectory,
    propagate,
    rabi_protocol,
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
    run_calibration,
    run_scenario,
    run_sweep,
)

__all__ = [
    "ComplexEnvelope",
    "PolarTracks",
    "Spectrum",
    "make_envelope",
    "to_polar",
    "from_polar",
    "fractional_delay",
    "windowed_fft",
    "Constellation",
    "GateEnvelopeSpec",
    "PulseShape",
    "SymbolStream",
    "build_constellation",
    "gate_envelope",
    "map_bits",
    "shape_symbols",
    "with_peak",
    "StageSpec",
    "TxChain",
    "apply_stage",
    "run_chain",
    "synth_comm_waveform",
    "synth_qubit_pulse",
    "BudgetReport",
    "EvmReport",
    "LinkScorer",
    "demodulate",
    "evm",
    "evm_budget",
    "eye_metrics",
    "image_rejection",
    "psd_welch",
    "spurs_sfdr",
    "GateSpec",
    "QubitModel",
    "average_gate_fidelity",
    "bloch_trajectory",
    "propagate",
    "rabi_protocol",
    "target_unitary",
    "dpd_fit",
    "iq_cal",
    "leakage_cancel",
    "polar_delay_align",
    "rabi_amplitude_cal",
    "ConfigError",
    "bundled_scenario_path",
    "list_bundled_scenarios",
    "run_calibration",
    "run_scenario",
    "run_sweep",
]

__version__ = "0.1.0"
