"""TIPPERS: the privacy-aware building management system.

"Currently, we are developing a privacy-aware smart building testbed
(TIPPERS) which captures raw data from the different sensors in the
building, processes higher-level semantic information from such data,
and empowers development of different building services.  TIPPERS is
also capable of capturing and enforcing privacy preferences expressed
by the building's inhabitants." (Section II-B.)

The facade is :class:`~repro.tippers.bms.TIPPERS`, which wires together
the sensor manager (capture), datastore (storage), inference engine
(processing), policy and preference managers, and the request manager
(sharing) -- each phase guarded by the enforcement engine.
"""

from repro.tippers.bms import TIPPERS
from repro.tippers.datastore import Datastore
from repro.tippers.dsar import (
    ErasureReceipt,
    SubjectAccessReport,
    erase_subject,
    subject_access_report,
)
from repro.tippers.inference import InferenceEngine
from repro.tippers.policy_manager import PolicyManager
from repro.tippers.preference_manager import PreferenceManager
from repro.tippers.request_manager import QueryResponse, RequestManager
from repro.tippers.preview import EffectPreview, preview_effects
from repro.tippers.sensor_manager import SensorManager
from repro.tippers.social import SocialInference, Tie

__all__ = [
    "TIPPERS",
    "Datastore",
    "SensorManager",
    "PolicyManager",
    "PreferenceManager",
    "RequestManager",
    "QueryResponse",
    "InferenceEngine",
    "SubjectAccessReport",
    "ErasureReceipt",
    "subject_access_report",
    "erase_subject",
    "SocialInference",
    "Tie",
    "EffectPreview",
    "preview_effects",
]
