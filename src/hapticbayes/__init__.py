"""Bayesian touch attention for active haptic exploration.

Two cooperating probabilistic models drive a simulated touch probe over a
voxelized workspace: a perception model that infers the material of each
touched voxel from noisy texture/compliance features, and an attention model
that picks the next voxel to explore from inhibition-of-return, uncertainty
and saliency fields.  A scenario harness and experiment bench reproduce the
material-classification and discontinuity-following benchmarks.

Argument contract.  The public entry points check each argument once per
call, before anything is drawn, read or written:

- a bad argument raises ``ValueError`` naming it, or its subclass
  :class:`GridConfigError`, :class:`LibraryLoadError` or
  :class:`ScenarioLoadError`;
- an argument of a package type (or a numpy ``Generator``) is one;
- integers are Python or numpy integers, never ``bool``: seeds and
  iterations >= 0, counts >= 1, indices within their range;
- real parameters are finite, and an integer too large for a float is not
  finite; value arrays hold real numbers, NaN where a function says so,
  never an integer too large for a float, a string, a ``bool`` or
  ``None``;
- voxels go through :meth:`WorkspaceGrid.require`;
- counts have no upper bound: ``run_exploration_benchmark(s, lib,
  n_trials=10**11)`` runs until stopped;
- file paths go to :class:`pathlib.Path` as given.

Not yet covered: :class:`AttentionState`'s fields and a
:class:`BetaFactor`'s shape values, which can raise from inside for a
value of another type.
"""

from .grid import (
    GridConfigError,
    VoxelIndex,
    WorkspaceBounds,
    WorkspaceGrid,
    make_grid,
)
from .materials import (
    HapticSample,
    LibraryLoadError,
    MaterialLibrary,
    MaterialParams,
    NoiseSpec,
    bundled_library_path,
    load_library,
    synthesize_sample,
)
from .perception import (
    MaterialPosterior,
    PosteriorGrid,
    log_likelihoods,
    map_category,
    update_posterior,
)
from .attention import (
    AttentionState,
    BetaFactor,
    TaskSpec,
    INHIBITION_FACTOR,
    SALIENCY_FACTOR,
    UNCERTAINTY_FACTOR,
    beta_pdf,
    inhibition_field,
    inhibition_profile,
    omega_field,
    saliency_field,
    select_target,
    target_posterior,
    uncertainty_field,
)
from .simulator import (
    Scenario,
    ScenarioLoadError,
    TrialConfig,
    TrialRecord,
    gamma_metric,
    generate_builtin_scenarios,
    load_scenario,
    run_trial,
    save_scenario,
    sense,
)
from .bench import (
    ConfusionMatrix,
    ExperimentReport,
    NoiseSweepResult,
    dump_fields,
    run_classification_experiment,
    run_exploration_benchmark,
    run_noise_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionState",
    "BetaFactor",
    "ConfusionMatrix",
    "ExperimentReport",
    "GridConfigError",
    "HapticSample",
    "INHIBITION_FACTOR",
    "LibraryLoadError",
    "MaterialLibrary",
    "MaterialParams",
    "MaterialPosterior",
    "NoiseSpec",
    "NoiseSweepResult",
    "PosteriorGrid",
    "SALIENCY_FACTOR",
    "Scenario",
    "ScenarioLoadError",
    "TaskSpec",
    "TrialConfig",
    "TrialRecord",
    "UNCERTAINTY_FACTOR",
    "VoxelIndex",
    "WorkspaceBounds",
    "WorkspaceGrid",
    "beta_pdf",
    "bundled_library_path",
    "dump_fields",
    "gamma_metric",
    "generate_builtin_scenarios",
    "inhibition_field",
    "inhibition_profile",
    "load_library",
    "load_scenario",
    "log_likelihoods",
    "make_grid",
    "map_category",
    "omega_field",
    "run_classification_experiment",
    "run_exploration_benchmark",
    "run_noise_sweep",
    "run_trial",
    "saliency_field",
    "save_scenario",
    "select_target",
    "sense",
    "synthesize_sample",
    "target_posterior",
    "uncertainty_field",
    "update_posterior",
]
