"""The synthetic Donald Bren Hall testbed.

Section II describes the real deployment: "DBH is equipped with more
than 40 surveillance cameras covering all the corridors and doors, 60
WiFi Access Points, 200 Bluetooth beacons, and 100 Power outlet
meters."  We cannot run in the real building, so this package builds a
synthetic DBH with the same inventory, populates it with inhabitants
following faculty/staff/student schedules, and drives the full Figure-1
interaction loop.

- :mod:`repro.simulation.dbh` -- the building and its sensor fleet.
- :mod:`repro.simulation.inhabitants` -- personas, profiles, schedules.
- :mod:`repro.simulation.mobility` -- the simulated world state
  (implements :class:`~repro.sensors.environment.EnvironmentView`).
- :mod:`repro.simulation.scenario` -- the end-to-end Figure-1 runner.
- :mod:`repro.simulation.harness` -- what the five fault scenarios
  (:mod:`~repro.simulation.chaos`, :mod:`~repro.simulation.recover`,
  :mod:`~repro.simulation.overload`, :mod:`~repro.simulation.federate`,
  :mod:`~repro.simulation.rebalance`) share: the report base, the
  accounted bus call, the named invariant checks, and the building and
  campus builders.
"""

from repro.simulation.dbh import build_dbh_spatial, deploy_dbh_sensors, make_dbh_tippers
from repro.simulation.inhabitants import Inhabitant, generate_inhabitants
from repro.simulation.longrun import WeekReport, run_week
from repro.simulation.mobility import BuildingWorld
from repro.simulation.scenario import Figure1Report, run_figure1_scenario

__all__ = [
    "build_dbh_spatial",
    "deploy_dbh_sensors",
    "make_dbh_tippers",
    "Inhabitant",
    "generate_inhabitants",
    "BuildingWorld",
    "run_figure1_scenario",
    "Figure1Report",
    "run_week",
    "WeekReport",
]
