"""Edge federated learning simulator.

Simulates a three-tier system: user devices offload labelled data to edge
servers under a distribution-aware scheduler, uplink transfers are priced by
an OFDMA radio model with per-pair power allocation, and the resulting
server datasets train a shared softmax model by federated averaging. A
drift-bound audit checks the gap between heterogeneous and shuffled runs.
"""

__version__ = "0.1.0"
