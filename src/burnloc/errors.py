"""Exception types shared across the package, and the strict reader every JSON
loader reads its input through: each loader declares an object's members in one
table, and `JSONValue.members` reads them and refuses any other member."""

from collections import namedtuple


class ValidationError(ValueError):
    """Input data violates a structural invariant (bad table, bad schema, bad symbol...)."""


class CatalogIncompleteError(LookupError):
    """A relation needs an action-catalog rule that was not declared.

    The message names the missing rule with its exact parameters; the engine
    never invents geometric identifications on its own.
    """

    def __init__(self, rule_kind: str, **params):
        self.rule_kind = rule_kind
        self.params = dict(params)
        detail = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        super().__init__(f"catalog incomplete: missing {rule_kind}({detail})")


_REQUIRED = object()
_CONTAINERS = {dict: "an object", list: "a list", tuple: "a list"}


def _exactly(kind: type, expected: str):
    def read(self):
        if type(self.value) is not kind:  # not isinstance: a bool is an int to it
            self.fail(expected)
        return self.value
    return read


class JSONValue(namedtuple("JSONValue", "value path prefix")):
    """A value of a JSON document at its path.  Each reader takes only the JSON
    type it names (`integer` no boolean, float or numeric string; `items` a list
    or a Python tuple) and raises ValidationError otherwise, under the document's
    prefix and naming the path: `malformed model JSON: strata[0].stabilizer[0]:
    expected an integer, got 0.5`."""

    __slots__ = ()
    integer = _exactly(int, "an integer")
    boolean = _exactly(bool, "a boolean")
    string = _exactly(str, "a string")

    def fail(self, expected: str):
        import json  # on the error path only: `import burnloc` does not load json

        got = _CONTAINERS.get(type(self.value)) or json.dumps(self.value, default=repr)
        where = f"{self.path}: " if self.path else ""
        raise ValidationError(f"{self.prefix}: {where}expected {expected}, got {got}")

    def object(self) -> "JSONValue":
        if not isinstance(self.value, dict):
            self.fail("an object")
        return self

    def items(self) -> list["JSONValue"]:
        if not isinstance(self.value, (list, tuple)):
            self.fail("a list")
        return [JSONValue(v, f"{self.path}[{i}]", self.prefix) for i, v in enumerate(self.value)]

    def integers(self) -> tuple[int, ...]:
        # a list of integers, the common case, is checked without a JSONValue per entry
        if isinstance(self.value, (list, tuple)) and all(type(v) is int for v in self.value):
            return tuple(self.value)
        return tuple(item.integer() for item in self.items())

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(item.integers() for item in self.items())

    def field(self, key: str, read, default=_REQUIRED):
        """`read` of member `key` of this object, or `default` if it is absent."""
        path = f"{self.path}.{key}" if self.path else key
        if key in self.object().value:
            return read(JSONValue(self.value[key], path, self.prefix))
        if default is _REQUIRED:
            raise ValidationError(f"{self.prefix}: {path} is missing")
        return default

    def members(self, table) -> list:
        """The members of this object that `table` declares, read in table order.
        An entry is (member, reader) or (member, reader, default); a member the
        table does not declare is refused before any member is read."""
        declared = [entry[0] for entry in table]
        for key in self.object().value:
            if key not in declared:
                where = f"{self.path}: " if self.path else ""
                raise ValidationError(
                    f"{self.prefix}: {where}unknown member {key!r} (expected {', '.join(declared)})")
        return [self.field(*entry) for entry in table]


def records(record, table):
    """The reader of a list of objects, each read through `table` into `record`."""
    return lambda value: tuple(record(*item.members(table)) for item in value.items())


def read_json(data, prefix: str) -> JSONValue:
    """The document `data` under the loader's error prefix; a value read out of
    a larger document keeps that document's prefix and path."""
    return data if isinstance(data, JSONValue) else JSONValue(data, "", prefix)
