"""In-process message bus standing in for the deployment network.

In the real deployment, IoTAs talk to IRRs and to TIPPERS over
JSON-based REST APIs.  Here all components run in one process, but all
inter-component traffic still crosses a serialization boundary: every
request and response is encoded to JSON text and decoded again, so a
type that would not survive the wire fails loudly in tests.

Message loss and latency come only from fault planes installed on the
bus (see :mod:`repro.faults`), so experiments can study the framework
under imperfect networks; retries come only from a
:class:`~repro.net.resilience.RetryPolicy` passed to ``call``.  The
admission controller and the breaker board guard the bus with fixed
watermarks and thresholds, held as constants in their modules.
"""

from repro.net.admission import (
    AdmissionController,
    AdmissionLedger,
    AdmissionTicket,
    LoadLevel,
    Priority,
    TokenBucket,
    TopicQueue,
    brownout_level,
)
from repro.net.bus import Endpoint, MessageBus, RpcError
from repro.net.codec import decode_message, encode_message

__all__ = [
    "MessageBus",
    "Endpoint",
    "RpcError",
    "encode_message",
    "decode_message",
    "AdmissionController",
    "AdmissionLedger",
    "AdmissionTicket",
    "LoadLevel",
    "Priority",
    "TokenBucket",
    "TopicQueue",
    "brownout_level",
]
