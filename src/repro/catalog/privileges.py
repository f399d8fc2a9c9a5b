"""Principals, privileges and grants.

The model follows Unity Catalog: privileges are granted on securables to
principals (users or groups); access to a table additionally requires
``USE CATALOG`` and ``USE SCHEMA`` on its ancestors; owners implicitly hold
all privileges on their objects; metastore admins hold all privileges
everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SecurableNotFound

# -- privilege names ----------------------------------------------------------

USE_CATALOG = "USE_CATALOG"
USE_SCHEMA = "USE_SCHEMA"
SELECT = "SELECT"
MODIFY = "MODIFY"
EXECUTE = "EXECUTE"
CREATE_TABLE = "CREATE_TABLE"
CREATE_SCHEMA = "CREATE_SCHEMA"
CREATE_FUNCTION = "CREATE_FUNCTION"
READ_VOLUME = "READ_VOLUME"
WRITE_VOLUME = "WRITE_VOLUME"
MANAGE = "MANAGE"

ALL_PRIVILEGES = frozenset(
    {
        USE_CATALOG,
        USE_SCHEMA,
        SELECT,
        MODIFY,
        EXECUTE,
        CREATE_TABLE,
        CREATE_SCHEMA,
        CREATE_FUNCTION,
        READ_VOLUME,
        WRITE_VOLUME,
        MANAGE,
    }
)


@dataclass(frozen=True)
class UserContext:
    """The acting identity of a request: user plus resolved group closure.

    Group down-scoping on shared dedicated clusters (§4.2) is expressed by
    :meth:`down_scoped_to`: the original user identity is retained (for
    auditing) while the *effective principals* collapse to exactly the group.
    """

    user: str
    groups: frozenset[str] = frozenset()
    #: When set, permission checks use only these principals instead of
    #: {user} | groups. Used for group down-scoping.
    effective_principals: frozenset[str] | None = None

    def principals(self) -> frozenset[str]:
        if self.effective_principals is not None:
            return self.effective_principals
        return frozenset({self.user}) | self.groups

    def down_scoped_to(self, group: str) -> "UserContext":
        """Reduce permissions to exactly ``group`` while keeping identity."""
        return UserContext(
            user=self.user,
            groups=self.groups,
            effective_principals=frozenset({group}),
        )

    @property
    def is_down_scoped(self) -> bool:
        return self.effective_principals is not None


class PrincipalDirectory:
    """Users, groups and (possibly nested) group membership."""

    def __init__(self) -> None:
        self._users: set[str] = set()
        self._groups: dict[str, set[str]] = {}
        self._admins: set[str] = set()

    # -- management ---------------------------------------------------------------

    def add_user(self, name: str, admin: bool = False) -> None:
        self._users.add(name)
        if admin:
            self._admins.add(name)

    def add_group(self, name: str, members: list[str] | None = None) -> None:
        self._groups.setdefault(name, set()).update(members or [])

    def add_member(self, group: str, member: str) -> None:
        if group not in self._groups:
            raise SecurableNotFound(f"group '{group}' does not exist")
        self._groups[group].add(member)

    def remove_member(self, group: str, member: str) -> None:
        self._groups.get(group, set()).discard(member)

    # -- queries -----------------------------------------------------------------

    def is_user(self, name: str) -> bool:
        return name in self._users

    def is_group(self, name: str) -> bool:
        return name in self._groups

    def is_admin(self, user: str) -> bool:
        return user in self._admins

    def groups_of(self, user: str) -> frozenset[str]:
        """Transitive closure of group membership for a user."""
        direct = {g for g, members in self._groups.items() if user in members}
        closed = set(direct)
        frontier = list(direct)
        while frontier:
            current = frontier.pop()
            for g, members in self._groups.items():
                if current in members and g not in closed:
                    closed.add(g)
                    frontier.append(g)
        return frozenset(closed)

    def context_for(self, user: str) -> UserContext:
        if not self.is_user(user):
            raise SecurableNotFound(f"user '{user}' does not exist")
        return UserContext(user=user, groups=self.groups_of(user))


@dataclass(frozen=True)
class Grant:
    """One (privilege, securable, principal) triple."""

    privilege: str
    securable: str
    principal: str


@dataclass
class PrivilegeStore:
    """Grant storage and lookup (no hierarchy logic — the metastore owns it)."""

    _grants: set[Grant] = field(default_factory=set)

    def grant(self, privilege: str, securable: str, principal: str) -> None:
        if privilege not in ALL_PRIVILEGES:
            raise ConfigurationError(
                f"unknown privilege '{privilege}'; one of {sorted(ALL_PRIVILEGES)}"
            )
        self._grants.add(Grant(privilege, securable, principal))

    def revoke(self, privilege: str, securable: str, principal: str) -> None:
        self._grants.discard(Grant(privilege, securable, principal))

    def has(self, privilege: str, securable: str, principals: frozenset[str]) -> bool:
        return any(
            Grant(privilege, securable, p) in self._grants for p in principals
        ) or any(Grant(MANAGE, securable, p) in self._grants for p in principals)

    def grants_on(self, securable: str) -> list[Grant]:
        return sorted(
            (g for g in self._grants if g.securable == securable),
            key=lambda g: (g.principal, g.privilege),
        )
