"""The paper's algorithms: FedML, Robust FedML, FedAvg, MAML, Reptile."""

from .adaptation import AdaptationCurve, adapt, evaluate_adaptation
from .adml import ADMLConfig, ADMLResult, FederatedADML
from .async_fedml import AsyncFedML, AsyncFedMLConfig, AsyncFedMLResult
from .fedavg import FedAvg, FedAvgConfig, FedAvgResult
from .fedprox import FedProx, FedProxConfig, FedProxResult
from .fedml import FedML, FedMLConfig, FedMLResult
from .maml import MAML, inner_adapt, meta_gradient, meta_loss
from .meta_sgd import FederatedMetaSGD, MetaSGDConfig, MetaSGDResult
from .reptile import FederatedReptile, ReptileConfig, ReptileResult
from .robust import RobustFedML, RobustFedMLConfig, RobustFedMLResult
from .runner import EngineRunner

__all__ = [
    "ADMLConfig",
    "AsyncFedML",
    "AsyncFedMLConfig",
    "AsyncFedMLResult",
    "ADMLResult",
    "FederatedADML",
    "FedProx",
    "FedProxConfig",
    "FedProxResult",
    "AdaptationCurve",
    "adapt",
    "evaluate_adaptation",
    "EngineRunner",
    "FedAvg",
    "FedAvgConfig",
    "FedAvgResult",
    "FedML",
    "FedMLConfig",
    "FedMLResult",
    "MAML",
    "FederatedMetaSGD",
    "MetaSGDConfig",
    "MetaSGDResult",
    "inner_adapt",
    "meta_gradient",
    "meta_loss",
    "FederatedReptile",
    "ReptileConfig",
    "ReptileResult",
    "RobustFedML",
    "RobustFedMLConfig",
    "RobustFedMLResult",
]
