"""Run artifacts: config documents, row reports, and files that are never left half-written.

A row report is a list of dataclass rows, written as TSV (a header of field
names, then tab-separated cells) and as a versioned JSON document.
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing
from contextlib import contextmanager


class ConfigDocument:
    """The JSON codec of a config dataclass, written once for all of them.

    ``to_config`` lists the fields in declaration order, tuples as lists and
    nested configs as their own documents, after a leading ``"version"`` for
    classes that set ``CONFIG_VERSION``. ``from_config`` fills absent fields
    from their defaults and converts nested documents and lists back by the
    field's type. It raises ``ValueError`` naming the key path for a document
    that is not an object, another version, an unknown or missing key, a
    tuple field that is not a list, a scalar that does not fit its field's
    ``int``, ``float``, ``str`` or ``str | None`` hint (a bool is not a
    number; an int is a float), or a value the constructor rejects with
    ``TypeError`` or ``ValueError``.
    """

    CONFIG_VERSION = None

    def to_config(self):
        doc = {} if self.CONFIG_VERSION is None else {"version": self.CONFIG_VERSION}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, ConfigDocument):
                value = value.to_config()
            elif isinstance(value, tuple):
                value = list(value)
            doc[f.name] = value
        return doc

    @classmethod
    def from_config(cls, doc, path=None):
        """The instance a document describes; an instance passes through unchanged."""
        path = path or cls.__name__
        if isinstance(doc, cls):
            return doc
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: expected an object, got {type(doc).__name__}")
        doc = dict(doc)
        if cls.CONFIG_VERSION is not None:
            version = doc.pop("version", cls.CONFIG_VERSION)
            if version != cls.CONFIG_VERSION:
                raise ValueError(f"{path}: unsupported version {version!r}")
        fields = dataclasses.fields(cls)
        unknown = set(doc) - {f.name for f in fields}
        if unknown:
            raise ValueError(f"{path}: unknown keys: {', '.join(sorted(unknown))}")
        missing = [f.name for f in fields if f.name not in doc
                   and f.default is dataclasses.MISSING
                   and f.default_factory is dataclasses.MISSING]
        if missing:
            raise ValueError(f"{path}: missing keys: {', '.join(missing)}")
        hints = typing.get_type_hints(cls)
        for name, value in doc.items():
            kind = hints[name]
            if isinstance(kind, type) and issubclass(kind, ConfigDocument):
                doc[name] = kind.from_config(value, f"{path}.{name}")
            elif kind is tuple:
                if not isinstance(value, (list, tuple)):
                    raise ValueError(f"{path}.{name}: expected a list, got {type(value).__name__}")
                doc[name] = tuple(value)
            elif not _fits(kind, value):
                allowed = " or ".join("None" if t is type(None) else t.__name__
                                      for t in typing.get_args(kind) or (kind,))
                raise ValueError(f"{path}.{name}: expected {allowed}, got {type(value).__name__}")
        try:
            return cls(**doc)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _fits(kind, value):
    """Whether a document's scalar fits a field hint such as ``int`` or ``str | None``."""
    types = typing.get_args(kind) or (kind,)
    if isinstance(value, bool):
        return bool in types
    return isinstance(value, types) or (float in types and isinstance(value, int))


@contextmanager
def replacing(path):
    """A binary file whose bytes reach ``path`` only if the block succeeds.

    The bytes go to ``path + ".tmp"``, which ``os.replace`` then renames onto
    ``path``. If the block or the rename fails, the temp file is removed and
    a previous file at ``path`` is left as it was.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def encode_cell(value):
    """A report cell's text: a float at full precision (``.17g``), anything else ``str``."""
    return f"{value:.17g}" if isinstance(value, float) else str(value)


def rows_to_tsv(row_type, rows):
    """The header of ``row_type``'s field names, then one line of encoded cells per row."""
    names = [f.name for f in dataclasses.fields(row_type)]
    lines = ["\t".join(names)]
    lines += ["\t".join(encode_cell(getattr(row, n)) for n in names) for row in rows]
    return "\n".join(lines) + "\n"


def rows_to_json(rows):
    """The version 1 document of ``rows``: ``{"version": 1, "rows": [row objects]}``."""
    doc = {"version": 1, "rows": [dataclasses.asdict(row) for row in rows]}
    return json.dumps(doc, indent=2) + "\n"


def write_files(directory, texts):
    """Write each ``{name: text}`` as UTF-8 under ``directory``, made if missing,
    in order and each through ``replacing``."""
    os.makedirs(directory, exist_ok=True)
    for name, text in texts.items():
        with replacing(os.path.join(directory, name)) as fh:
            fh.write(text.encode("utf-8"))
