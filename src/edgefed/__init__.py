"""Edge federated learning simulator.

Simulates a three-tier system: user devices offload labelled data to edge
servers under a distribution-aware scheduler, uplink transfers are priced by
an OFDMA radio model with per-pair power allocation, and the resulting
server datasets train a shared softmax model by federated averaging. A
drift-bound audit checks the gap between heterogeneous and shuffled runs.
"""

__version__ = "0.1.0"

from .distributions import (
    Dataset,
    DirichletProfile,
    FeatureModel,
    GroupedProfile,
    LabelDistribution,
    ProbabilityVector,
    generate_clients,
    materialize,
    normalize,
    sample_dirichlet,
    separated_feature_model,
    uniform_distribution,
)
from .divergence import (
    DivergenceReport,
    SmoothnessEstimate,
    audit_drift_bound,
    complement,
    drift_bound,
    kl,
    lipschitz_bound,
)
from .federated import (
    ModelParams,
    PairedRun,
    RoundMetrics,
    TrainConfig,
    aggregate,
    evaluate_accuracy,
    iid_counterpart,
    local_update,
    loss_and_grad,
    run_fl,
    run_paired,
)
from .network import (
    OffloadPlan,
    RadioConfig,
    SubcarrierMap,
    Topology,
    TopologyParams,
    TransferRecord,
    assign_subcarriers,
    channel_gain,
    effective_interference,
    place_topology,
    rate,
    sinr,
    system_cost,
    transfer_time,
)
from .power import (
    PairParams,
    PowerResult,
    allocate_power,
    objective,
    pair_params,
    quasiconvexity_probe,
    solve_pair,
)
from .scheduler import (
    OffloadTrace,
    Policy,
    SchedulerConfig,
    run_scheduler,
    serviceable_set,
    uniform_target,
)
from .harness import (
    DataParams,
    ResultsBundle,
    ScenarioConfig,
    SchedulerParams,
    build_population,
    desk_config,
    emit,
    evaluation_set,
    iid_reference,
    paper_scale_config,
    run_scenario,
    server_datasets_from_plan,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
