"""Unit tests for user profiles and the directory."""

import random

import pytest

from repro.errors import PolicyError
from repro.users.profile import UserDirectory, UserProfile


def profile(
    user_id="mary", macs=("aa:bb",), groups=frozenset({"faculty"}), office=None
):
    return UserProfile(
        user_id=user_id,
        name=user_id.title(),
        groups=groups,
        office_id=office,
        device_macs=tuple(macs),
    )


class TestUserProfile:
    def test_empty_id_rejected(self):
        with pytest.raises(PolicyError):
            UserProfile(user_id="", name="x")

    def test_in_group(self):
        assert profile().in_group("faculty")
        assert not profile().in_group("staff")


class TestUserDirectory:
    def test_add_and_get(self):
        directory = UserDirectory()
        directory.add(profile())
        assert directory.get("mary").name == "Mary"
        assert "mary" in directory
        assert len(directory) == 1

    def test_duplicate_user_rejected(self):
        directory = UserDirectory()
        directory.add(profile())
        with pytest.raises(PolicyError):
            directory.add(profile())

    def test_duplicate_device_rejected(self):
        directory = UserDirectory()
        directory.add(profile())
        with pytest.raises(PolicyError):
            directory.add(profile(user_id="bob", macs=("aa:bb",)))

    def test_unknown_user(self):
        with pytest.raises(PolicyError):
            UserDirectory().get("ghost")

    def test_owner_of_device(self):
        directory = UserDirectory()
        directory.add(profile())
        assert directory.owner_of_device("aa:bb") == "mary"
        assert directory.owner_of_device("zz:zz") is None

    def test_members_of(self):
        directory = UserDirectory()
        directory.add(profile())
        directory.add(profile(user_id="bob", macs=("cc:dd",), groups=frozenset({"staff"})))
        assert [u.user_id for u in directory.members_of("staff")] == ["bob"]

    def test_group_map_shape(self):
        directory = UserDirectory()
        directory.add(profile())
        assert directory.group_map() == {"mary": frozenset({"faculty"})}

    def test_iteration(self):
        directory = UserDirectory()
        directory.add(profile())
        directory.add(profile(user_id="bob", macs=("cc:dd",)))
        assert {u.user_id for u in directory} == {"mary", "bob"}


def scanned_owner(directory, space_id):
    """The owner by a scan of the directory: the first user, in directory
    order, whose office is ``space_id``."""
    for user in directory:
        if user.office_id == space_id:
            return user.user_id
    return None


class TestOfficeOwner:
    def test_add(self):
        directory = UserDirectory()
        directory.add(profile(office="b-1001"))
        assert directory.office_owner("b-1001") == "mary"
        assert directory.office_owner("b-2004") is None

    def test_user_without_office_owns_nothing(self):
        directory = UserDirectory()
        directory.add(profile())
        assert directory.office_owner("b-1001") is None

    def test_remove(self):
        directory = UserDirectory()
        directory.add(profile(office="b-1001"))
        directory.remove("mary")
        assert directory.office_owner("b-1001") is None
        directory.remove("mary")  # idempotent
        assert directory.office_owner("b-1001") is None

    def test_shared_office_first_in_directory_order_wins(self):
        directory = UserDirectory()
        directory.add(profile(office="b-1001"))
        directory.add(profile(user_id="bob", macs=("cc:dd",), office="b-1001"))
        assert directory.office_owner("b-1001") == "mary"
        directory.remove("mary")
        assert directory.office_owner("b-1001") == "bob"
        # Re-added, mary comes after bob in directory order.
        directory.add(profile(office="b-1001"))
        assert [u.user_id for u in directory] == ["bob", "mary"]
        assert directory.office_owner("b-1001") == "bob"

    def test_matches_a_scan_over_random_adds_and_removes(self):
        rng = random.Random(7)
        directory = UserDirectory()
        offices = ["o1", "o2", "o3", None]
        for step in range(400):
            user_id = "u%d" % rng.randrange(12)
            if user_id in directory:
                directory.remove(user_id)
            else:
                directory.add(profile(
                    user_id=user_id, macs=(), office=rng.choice(offices)
                ))
            for office in offices[:-1] + ["o9"]:
                assert directory.office_owner(office) == scanned_owner(
                    directory, office
                ), (step, office)
