"""FIG-2: the machine-readable building policy document of Figure 2.

Regenerates a document structurally identical to the paper's Figure 2
("Location tracking in DBH": WiFi APs, emergency-response purpose, MAC
address observation, P6M retention) from the typed policy model, checks
every element the figure shows, and benchmarks serialize+parse
round-trip throughput.
"""

from benchmarks.conftest import report
from repro.core.language.builder import ResourcePolicyBuilder
from repro.core.language.document import ResourcePolicyDocument


def figure2_document() -> ResourcePolicyDocument:
    return (
        ResourcePolicyBuilder()
        .resource("Location tracking in DBH")
        .at(
            "Donald Bren Hall",
            "Building",
            owner="UCI",
            more_info="https://uci.edu/dbh",
        )
        .sensor(
            "WiFi Access Point",
            "Installed inside the building and covers rooms and corridors",
        )
        .purpose("emergency response", "Location is stored continuously")
        .observes(
            "MAC address of the device",
            "If your device is connected to a WiFi Access Point in DBH, "
            "its MAC address is stored",
        )
        .retain("P6M")
        .build()
    )


def test_fig2_document_matches_paper(benchmark):
    document = figure2_document()
    data = document.to_dict()

    # Every element Figure 2 shows, in the same structure.
    resource = data["resources"][0]
    assert resource["info"]["name"] == "Location tracking in DBH"
    spatial = resource["context"]["location"]["spatial"]
    assert spatial == {"name": "Donald Bren Hall", "type": "Building"}
    owner = resource["context"]["location"]["location_owner"]
    assert owner["name"] == "UCI"
    assert "more_info" in owner["human_description"]
    assert resource["sensor"]["type"] == "WiFi Access Point"
    assert "emergency response" in resource["purpose"]
    assert resource["observations"][0]["name"] == "MAC address of the device"
    assert resource["retention"] == {"duration": "P6M"}

    def round_trip() -> ResourcePolicyDocument:
        return ResourcePolicyDocument.from_json(document.to_json())

    restored = benchmark(round_trip)
    assert restored == document

    text = document.to_json(indent=None)
    report(
        "FIG-2: building policy document",
        [
            "wire size: %d bytes" % len(text),
            "schema-valid: yes (validated on serialize and parse)",
            "round-trip equal: yes",
        ],
    )
    benchmark.extra_info["wire_bytes"] = len(text)
