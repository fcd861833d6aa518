"""Synthetic PMU workbench for learning-based power-system inertia estimation.

Pipeline: a multi-machine swing-equation model of a bus network is perturbed
with a small probing injection; synthetic PMU channels (speed deviation,
RoCoF, voltage angle) are acquired at 2880 Hz, downsampled to 200 Hz, noised
to a target SNR and flattened into normalized tensors labeled with the
system inertia constant; a from-scratch recurrent-convolutional regressor is
trained on the corpus and compared against a flatten baseline.
"""

from .dynamics import (
    InstabilityError,
    PmuRecordSet,
    ProbingSignal,
    SimConfig,
    integrate,
    single_machine_response,
    swing_rhs,
)
from .grid import (
    Branch,
    Bus,
    GeneratorParams,
    GridModel,
    ReducedNetwork,
    build_reduced_network,
    inertia_constant,
    load_case,
    load_default_case,
    rotational_energy,
    scale_to_target_inertia,
    system_inertia_constant,
)
from .signals import (
    Dataset,
    Feature,
    FeatureSet,
    add_noise,
    assemble_features,
    extract_window,
    measured_snr,
    resample,
    resample_record,
)

__version__ = "0.1.0"
