"""Personalized privacy assistants for three kinds of users.

Trains an IoT Assistant preference model for each Westin persona
(unconcerned / pragmatist / fundamentalist) from synthetic labeled
decisions, then shows:

- how accurately each model predicts held-out decisions,
- which location-sharing setting each assistant picks (Figure 4's
  fine / coarse / off choice),
- how many of the building's advertised practices each assistant
  surfaces as notifications (the Section V-B fatigue trade-off).

Run:  python examples/personalized_assistant.py
"""

from repro.core.policy.settings import location_settings_space
from repro.iota.notifications import NotificationManager
from repro.iota.personas import PERSONAS, generate_decisions
from repro.iota.preference_model import DataPractice, PreferenceModel
from repro.core.language.vocabulary import DataCategory, Purpose


ADVERTISED_PRACTICES = [
    ("WiFi location for emergencies", DataPractice(DataCategory.LOCATION, Purpose.EMERGENCY_RESPONSE, retention_days=180)),
    ("Camera presence for security", DataPractice(DataCategory.PRESENCE, Purpose.SECURITY, retention_days=30)),
    ("Occupancy for comfort (HVAC)", DataPractice(DataCategory.OCCUPANCY, Purpose.COMFORT, retention_days=7)),
    ("Energy use for energy management", DataPractice(DataCategory.ENERGY_USE, Purpose.ENERGY_MANAGEMENT, retention_days=365)),
    ("Location shared for research", DataPractice(DataCategory.LOCATION, Purpose.RESEARCH, retention_days=365)),
    ("Identity for marketing (3rd party)", DataPractice(DataCategory.IDENTITY, Purpose.MARKETING, third_party=True)),
]


def main() -> None:
    space = location_settings_space()
    print("%-16s %8s %10s %14s %s" % ("persona", "accuracy", "setting", "notifications", "notified about"))
    print("-" * 90)
    for name, persona in PERSONAS.items():
        train = generate_decisions(persona, 200, seed=1)
        test = generate_decisions(persona, 100, seed=2)
        model = PreferenceModel().fit(train)
        accuracy = model.accuracy(test)

        # Which Figure-4 setting does the assistant choose?
        group = space.group("location")
        preferred = model.preferred_granularity(
            DataCategory.LOCATION,
            Purpose.PROVIDING_SERVICE,
            [c.granularity for c in group.choices],
        )
        choice = group.best_at_most(preferred)

        # Which advertised practices does it surface?
        notifier = NotificationManager(model, relevance_threshold=0.35)
        surfaced = []
        for index, (label, practice) in enumerate(ADVERTISED_PRACTICES):
            if notifier.offer(index * 10.0, practice, label) is not None:
                surfaced.append(label)

        print(
            "%-16s %8.2f %10s %14d %s"
            % (name, accuracy, choice.key, len(surfaced), "; ".join(surfaced) or "-")
        )

    print()
    print("A fundamentalist assistant picks 'off' and is warned about most")
    print("practices; an unconcerned assistant picks 'fine' and is barely")
    print("interrupted -- selective notification without user fatigue.")


if __name__ == "__main__":
    main()
