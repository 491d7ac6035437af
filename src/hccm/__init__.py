"""Virtual laboratory for homodyne cross-correlation measurements of light.

Simulates squeezed-coherent signal fields interfering with a weak local
oscillator on an unbalanced beam splitter, generates two-detector photocurrent
records, and runs the full analysis chain: correlation estimation,
trigonometric-regression separation of the moment contributions, and the
determinant-based test for anomalous quantum correlations.
"""

from .analysis import (
    CorrelationEstimate,
    SeparatedContributions,
    TrigFit,
    drift_error,
    estimate_correlation,
    fit_trig_poly,
    separate_by_lo,
    separate_by_phase,
)
from .config import load_config, preset_config
from .detector import (
    DetectorConfig,
    ExperimentConfig,
    SegmentEstimate,
    SignalParams,
    scan_estimates,
    simulate_estimates,
    simulate_segments,
)
from .errors import (
    AnomalousTermInaccessibleError,
    ConfigError,
    DataError,
    DegenerateDesignError,
    DegenerateSplitterError,
    HccmError,
    InsufficientDataError,
    PreconditionError,
    UnphysicalStateError,
)
from .gaussian import (
    GaussianState,
    LocalOscillator,
    MomentTriple,
    apply_loss,
    from_quadrature_variances,
    normal_ordered_signal_moments,
    photocurrent_covariance,
    quadrature_variance,
    rotate,
    squeezed_coherent,
    thermal_state,
    two_mode_output,
    vacuum,
)
from .nonclassicality import (
    DetResult,
    build_L,
    classify_phase_range,
    det_with_error,
    moment_matrix_det,
    squeezed_phases,
)
from .pipeline import run_pipeline
from .records import Record
from .splitter import (
    BeamSplitter,
    Contributions,
    SplitterCoefficients,
    delta_g_contributions,
    predicted_correlation,
    splitter_coefficients,
    symmetric_splitter,
)

__version__ = "0.1.0"
