"""The IoT Resource Registry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional

from repro.core.language.document import (
    ResourcePolicyDocument,
    ServicePolicyDocument,
    SettingsDocument,
)
from repro.errors import NetworkError, RegistryError
from repro.net.bus import Endpoint
from repro.spatial.model import SpatialModel


@dataclass(frozen=True)
class Advertisement:
    """One advertised resource or service.

    ``coverage_space_id`` is the space whose visitors the advertisement
    concerns; discovery matches a user's location against it using the
    spatial model's containment/overlap operators.  Documents are kept
    in their wire (dict) form, since that is what the IRR broadcasts.
    """

    advertisement_id: str
    kind: str  # "resource" | "service"
    coverage_space_id: str
    document: Dict[str, Any]
    settings: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("resource", "service"):
            raise RegistryError("kind must be 'resource' or 'service'")

    def resource_document(self) -> ResourcePolicyDocument:
        if self.kind != "resource":
            raise RegistryError(
                "advertisement %r is not a resource" % self.advertisement_id
            )
        return ResourcePolicyDocument.from_dict(self.document)

    def service_document(self) -> ServicePolicyDocument:
        if self.kind != "service":
            raise RegistryError(
                "advertisement %r is not a service" % self.advertisement_id
            )
        return ServicePolicyDocument.from_dict(self.document)

    def settings_document(self) -> Optional[SettingsDocument]:
        if self.settings is None:
            return None
        return SettingsDocument.from_dict(self.settings)


class IoTResourceRegistry(Endpoint):
    """Holds advertisements and answers proximity discovery."""

    def __init__(self, registry_id: str, spatial: SpatialModel) -> None:
        if not registry_id:
            raise RegistryError("registry_id must be non-empty")
        self.registry_id = registry_id
        self._spatial = spatial
        self._advertisements: Dict[str, Advertisement] = {}

    # ------------------------------------------------------------------
    # Publication (step 4 of Figure 1)
    # ------------------------------------------------------------------
    def publish_resource(
        self,
        advertisement_id: str,
        coverage_space_id: str,
        document: ResourcePolicyDocument,
        settings: Optional[SettingsDocument] = None,
    ) -> Advertisement:
        """Advertise a building resource policy, validating the docs."""
        return self._publish(
            Advertisement(
                advertisement_id=advertisement_id,
                kind="resource",
                coverage_space_id=coverage_space_id,
                document=document.to_dict(),
                settings=settings.to_dict() if settings is not None else None,
            )
        )

    def publish_service(
        self,
        advertisement_id: str,
        coverage_space_id: str,
        document: ServicePolicyDocument,
        settings: Optional[SettingsDocument] = None,
    ) -> Advertisement:
        """Advertise a service's data practices."""
        return self._publish(
            Advertisement(
                advertisement_id=advertisement_id,
                kind="service",
                coverage_space_id=coverage_space_id,
                document=document.to_dict(),
                settings=settings.to_dict() if settings is not None else None,
            )
        )

    def _publish(self, advertisement: Advertisement) -> Advertisement:
        if advertisement.coverage_space_id not in self._spatial:
            raise RegistryError(
                "unknown coverage space %r" % advertisement.coverage_space_id
            )
        if advertisement.advertisement_id in self._advertisements:
            raise RegistryError(
                "advertisement %r already published" % advertisement.advertisement_id
            )
        self._advertisements[advertisement.advertisement_id] = advertisement
        return advertisement

    def withdraw(self, advertisement_id: str) -> None:
        if advertisement_id not in self._advertisements:
            raise RegistryError("unknown advertisement %r" % advertisement_id)
        del self._advertisements[advertisement_id]

    def __len__(self) -> int:
        return len(self._advertisements)

    def advertisements(self) -> List[Advertisement]:
        """Every advertisement, ordered by id.

        This (together with :meth:`__iter__`) is the iteration hook the
        static policy analyzer audits whole registries through; it
        deliberately returns the wire-form :class:`Advertisement`
        objects rather than parsed documents, so the audit sees exactly
        what the IRR broadcasts.
        """
        return sorted(
            self._advertisements.values(), key=lambda a: a.advertisement_id
        )

    def __iter__(self):
        return iter(self.advertisements())

    # ------------------------------------------------------------------
    # Discovery (step 5 of Figure 1)
    # ------------------------------------------------------------------
    def discover(self, near_space_id: str) -> List[Advertisement]:
        """Advertisements relevant to a user at ``near_space_id``.

        An advertisement is relevant when its coverage space contains,
        is contained in, overlaps, or neighbors the user's space.
        """
        if near_space_id not in self._spatial:
            raise RegistryError("unknown space %r" % near_space_id)
        relevant = []
        for advertisement in self.advertisements():
            coverage = advertisement.coverage_space_id
            if (
                self._spatial.overlap(coverage, near_space_id)
                or self._spatial.neighboring(coverage, near_space_id)
            ):
                relevant.append(advertisement)
        return relevant

    # ------------------------------------------------------------------
    # Bus endpoint
    # ------------------------------------------------------------------
    def handle(self, method: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        if method == "discover":
            space_id = payload.get("space_id")
            if not isinstance(space_id, str):
                raise NetworkError("discover needs a space_id")
            try:
                found = self.discover(space_id)
            except RegistryError as exc:
                raise NetworkError(str(exc)) from None
            return {
                "registry_id": self.registry_id,
                "advertisements": [
                    {
                        "advertisement_id": a.advertisement_id,
                        "kind": a.kind,
                        "coverage_space_id": a.coverage_space_id,
                        "document": a.document,
                        "settings": a.settings,
                    }
                    for a in found
                ],
            }
        raise NetworkError("method %r not handled" % method)


def discover_registries(
    registries: Iterable[IoTResourceRegistry],
    near_space_id: str,
) -> Dict[str, List[Advertisement]]:
    """Query several registries, tolerating ones that do not cover us.

    Returns registry_id -> advertisements for registries that returned
    at least one relevant advertisement.
    """
    results: Dict[str, List[Advertisement]] = {}
    for registry in registries:
        try:
            found = registry.discover(near_space_id)
        except RegistryError:
            continue
        if found:
            results[registry.registry_id] = found
    return results
