"""Non-intrusive load monitoring benchmark toolkit."""

from .data import (
    Building,
    Channel,
    DataSet,
    Gap,
    Measurement,
    POWER_ACTIVE,
    VOLTAGE,
    canonical_label,
    select_window,
    validate_building,
)
from .diagnostics import DiagnosticReport, detect_gaps, diagnose, dropout_rate, uptime
from .disaggregate import Predictions, disaggregate_co, disaggregate_fhmm
from .io import (
    ImportReport,
    export_model_json,
    import_model_json,
    import_redd_style,
    load_dataset_dir,
    save_dataset_dir,
)
from .metrics import MetricReport, evaluate
from .synth import SynthSpec, default_benchmark_spec, generate
from .training import (
    ApplianceHMM,
    ApplianceStateModel,
    COModel,
    FHMMModel,
    learn_building_states,
    learn_hmm,
    learn_states,
    train_co,
    train_fhmm,
)

__version__ = "0.1.0"
