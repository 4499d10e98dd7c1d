"""The user preference manager.

Step (8) of Figure 1: the IoTA communicates its user's privacy settings
to TIPPERS.  The manager validates submissions, stores them in the rule
store the enforcement engine reads, detects conflicts with building
policies at submission time (so the user can be told immediately), and
translates setting selections into preferences.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.core.policy.conditions import EvaluationContext
from repro.core.policy.preference import ServicePermission, UserPreference
from repro.core.reasoner.conflicts import Conflict, detect_conflicts
from repro.core.reasoner.index import RuleStore
from repro.errors import PolicyError
from repro.tippers.policy_manager import PolicyManager
from repro.users.profile import UserDirectory


class PreferenceManager:
    """Stores per-user preferences and reports conflicts."""

    def __init__(
        self,
        store: RuleStore,
        policy_manager: PolicyManager,
        directory: UserDirectory,
        context: Optional[EvaluationContext] = None,
        on_submit: Optional[Callable[[UserPreference], object]] = None,
        on_withdraw_all: Optional[Callable[[str], object]] = None,
    ) -> None:
        self._store = store
        self._policy_manager = policy_manager
        self._directory = directory
        self._context = context if context is not None else EvaluationContext()
        self._by_user: Dict[str, Dict[str, UserPreference]] = defaultdict(dict)
        self._selections: Dict[str, Dict[str, str]] = {}
        # Durability hooks (see repro.storage): called after validation
        # but before the store mutation -- write-ahead ordering, same as
        # the durable datastore.
        self._on_submit = on_submit
        self._on_withdraw_all = on_withdraw_all

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, preference: UserPreference) -> List[Conflict]:
        """Store ``preference`` and return conflicts with building policies.

        Unknown users are rejected; re-submitting a preference id
        replaces the previous version.  The preference is stored even
        when conflicts exist -- resolution happens per request -- but
        the caller (the IoTA) receives the conflicts so it can inform
        the user (Section III-B).
        """
        if preference.user_id not in self._directory:
            raise PolicyError("unknown user %r" % preference.user_id)
        if self._on_submit is not None:
            self._on_submit(preference)
        self._by_user[preference.user_id][preference.preference_id] = preference
        self._store.add_preference(preference)
        return detect_conflicts(
            self._policy_manager.policies(), [preference], self._context
        )

    def submit_permission(self, permission: ServicePermission) -> List[Conflict]:
        """Store an app-style service permission (Preferences 3 and 4)."""
        return self.submit(permission.to_preference())

    def withdraw(self, user_id: str, preference_id: str) -> None:
        user_prefs = self._by_user.get(user_id, {})
        if preference_id not in user_prefs:
            raise PolicyError(
                "user %r has no preference %r" % (user_id, preference_id)
            )
        del user_prefs[preference_id]
        # The log has no single-withdrawal record; mirror the store
        # rebuild below as withdraw-all + re-submit of what remains.
        if self._on_withdraw_all is not None:
            self._on_withdraw_all(user_id)
        if self._on_submit is not None:
            for preference in user_prefs.values():
                self._on_submit(preference)
        # The store indexes by preference id; rebuild the user's entry.
        self._store.remove_preferences_of(user_id)
        for preference in user_prefs.values():
            self._store.add_preference(preference)

    def withdraw_all(self, user_id: str) -> int:
        if self._on_withdraw_all is not None:
            self._on_withdraw_all(user_id)
        count = len(self._by_user.pop(user_id, {}))
        self._store.remove_preferences_of(user_id)
        self._selections.pop(user_id, None)
        return count

    # ------------------------------------------------------------------
    # Settings selections (Figure 4 -> preferences)
    # ------------------------------------------------------------------
    def apply_selection(
        self, user_id: str, selection: Dict[str, str]
    ) -> List[Conflict]:
        """Apply a settings-space selection for ``user_id``.

        Returns the union of conflicts produced by the generated
        preferences.
        """
        space = self._policy_manager.settings_space
        preferences = space.selection_to_preferences(user_id, selection)
        conflicts: List[Conflict] = []
        for preference in preferences:
            conflicts.extend(self.submit(preference))
        self._selections[user_id] = dict(selection)
        return conflicts

    def selection_of(self, user_id: str) -> Dict[str, str]:
        return dict(self._selections.get(user_id, {}))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def preferences_of(self, user_id: str) -> List[UserPreference]:
        return sorted(
            self._by_user.get(user_id, {}).values(), key=lambda p: p.preference_id
        )

    def count(self) -> int:
        return sum(len(prefs) for prefs in self._by_user.values())

    def conflicts_of(self, user_id: str) -> List[Conflict]:
        """Current conflicts between the user and the building."""
        return detect_conflicts(
            self._policy_manager.policies(),
            self.preferences_of(user_id),
            self._context,
        )
