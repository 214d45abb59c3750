"""QUEST user accounts and roles (§4.5.4).

"Users can view the data and assign error codes"; "users with extended
rights can define new error codes right in the QUEST interface"; admins
additionally "maintain users".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..relstore import Column, ColumnType, Database, Schema, col


class Role(enum.Enum):
    """QUEST access levels."""

    VIEWER = "viewer"          # view bundles and comparisons
    EXPERT = "expert"          # + assign error codes
    POWER_EXPERT = "power"     # + define new error codes
    ADMIN = "admin"            # + maintain users

    @classmethod
    def parse(cls, name: str) -> "Role":
        """Return the role named *name* (case-insensitive).

        Raises:
            ValueError: on unknown names.
        """
        try:
            return cls(name.strip().lower())
        except ValueError:
            known = ", ".join(role.value for role in cls)
            raise ValueError(f"unknown role {name!r}; expected one of {known}") from None


#: Capability sets per role.
_CAPABILITIES: dict[Role, frozenset[str]] = {
    Role.VIEWER: frozenset({"view"}),
    Role.EXPERT: frozenset({"view", "assign"}),
    Role.POWER_EXPERT: frozenset({"view", "assign", "define_codes"}),
    Role.ADMIN: frozenset({"view", "assign", "define_codes", "manage_users"}),
}


@dataclass(frozen=True)
class User:
    """One QUEST account."""

    name: str
    role: Role
    display_name: str = ""

    def can(self, capability: str) -> bool:
        """Whether this user's role grants *capability*."""
        return capability in _CAPABILITIES[self.role]


class PermissionError_(Exception):
    """A user attempted an operation their role does not grant."""


USER_SCHEMA = Schema.build(
    [
        Column("name", ColumnType.TEXT, nullable=False),
        Column("role", ColumnType.TEXT, nullable=False),
        ("display_name", ColumnType.TEXT),
    ],
    primary_key="name",
)


class UserStore:
    """Relational user registry."""

    def __init__(self, database: Database | None = None) -> None:
        self._database = database if database is not None else Database("quest")
        self._table = self._database.create_table("users", USER_SCHEMA,
                                                  if_not_exists=True)

    def add(self, user: User) -> None:
        """Register a new account.

        Raises:
            IntegrityError: if the name is taken.
        """
        self._table.insert({"name": user.name, "role": user.role.value,
                            "display_name": user.display_name})

    def get(self, name: str) -> User | None:
        """Look up an account, or None."""
        row = self._table.select_one(col("name") == name)
        if row is None:
            return None
        return User(row["name"], Role.parse(row["role"]),
                    row["display_name"] or "")

    def set_role(self, actor: User, name: str, role: Role) -> None:
        """Change an account's role; requires the ``manage_users`` capability.

        Raises:
            PermissionError_: if *actor* may not manage users.
            ValueError: if the account does not exist.
        """
        if not actor.can("manage_users"):
            raise PermissionError_(f"{actor.name} may not manage users")
        row_ids = self._table.row_ids_where(col("name") == name)
        if not row_ids:
            raise ValueError(f"no user {name!r}")
        self._table.update(row_ids[0], {"role": role.value})

    def remove(self, actor: User, name: str) -> None:
        """Delete an account; requires the ``manage_users`` capability.

        Raises:
            PermissionError_: if *actor* may not manage users.
        """
        if not actor.can("manage_users"):
            raise PermissionError_(f"{actor.name} may not manage users")
        self._table.delete(col("name") == name)

    def all_users(self) -> list[User]:
        """Every account, sorted by name."""
        return sorted((User(row["name"], Role.parse(row["role"]),
                            row["display_name"] or "")
                       for row in self._table.scan()),
                      key=lambda user: user.name)
