"""Common machinery for building services."""

from __future__ import annotations

from repro.core.language.builder import ServicePolicyBuilder
from repro.core.language.document import ServicePolicyDocument
from repro.core.policy.base import RequesterKind
from repro.errors import ServiceError
from repro.tippers.bms import TIPPERS


class BuildingService:
    """Base class: a named service bound to a TIPPERS instance.

    Subclasses declare ``service_id`` semantics through their policy
    document (what they observe and why), which the building publishes
    through the IRR so users can review it (Section III-B: "This allows
    a user to directly review what information the service requests and
    for what purpose").
    """

    def __init__(
        self,
        service_id: str,
        tippers: TIPPERS,
        third_party: bool = False,
        developer_name: str = "",
    ) -> None:
        if not service_id:
            raise ServiceError("service_id must be non-empty")
        self.service_id = service_id
        self.tippers = tippers
        self.third_party = third_party
        self.developer_name = developer_name or (
            "Third-party developer" if third_party else "Building operator"
        )

    @property
    def requester_kind(self) -> RequesterKind:
        return (
            RequesterKind.THIRD_PARTY_SERVICE
            if self.third_party
            else RequesterKind.BUILDING_SERVICE
        )

    def policy_document(self) -> ServicePolicyDocument:
        """The machine-readable description of this service's practices.

        Subclasses override :meth:`_describe` to declare observations
        and purposes.
        """
        builder = ServicePolicyBuilder(self.service_id).developer(
            self.developer_name, third_party=self.third_party
        )
        self._describe(builder)
        return builder.build()

    def _describe(self, builder: ServicePolicyBuilder) -> None:
        raise NotImplementedError
