"""Joint range / angle-of-arrival estimation from OFDM channel state
information via decimated spatial smoothing and 2D MUSIC."""

from .detection import (Detection, DetectionReport, DetectorConfig, GridConfig,
                        Routine, cancel_target, cfar_threshold, detect,
                        refine_candidates)
from .errors import (AlreadyCanceledError, ConfigError, CsiFormatError,
                     DomainError, NumericalError, OfdmMusicError)
from .harness import (ScenarioSpec, ScoringContext, SweepSummary, TrialResult,
                      assign_and_score, calibrate_kappa, estimate,
                      generate_trial, noise_variance_for_snr, run_sweep,
                      run_trial, trimmed_rmse, write_sweep_outputs)
from .music import (DEFAULT_THETA_LIM_RAD, MUSIC_VALUE_CLAMP, SpectrumEvaluator,
                    SpectrumGrid, SteeringParams, Subspaces, coarse_grid,
                    decompose, flop_estimate, grid_geometry, grid_steering,
                    mdl_order, music_value, range_resolution, steering_params,
                    unambiguous_range)
from .presets import (baseline_plan, baseline_radio, equal_m_plan,
                      range_only_plan)
from .signal_model import (SPEED_OF_LIGHT, CsiMatrix, RadioConfig, Target,
                           TargetScene, csi_from_symbols, scene_coefficient,
                           steering_angle, steering_range, synthesize_csi)
from .smoothing import (SampleCovariance, SubarrayPlan, covariance, make_plan,
                        smooth)

__version__ = "0.1.0"
