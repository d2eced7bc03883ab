"""A small SQL tokenizer and statement parser for the sql-* rules.

This is not a SQL engine — it recognizes exactly the sqlite dialect
subset the repro package writes (SELECT/INSERT/UPDATE/DELETE with
joins, aliases, and flat subqueries, plus the DDL statement forms in
``storage/schema.py``) and extracts what the lint rules need: which
tables and columns a statement references, which indexes its
``INDEXED BY`` clauses name, how many ``?`` placeholders
it carries, and a whitespace/placeholder-normalized census key under
which the static and runtime statement sets can be compared.

Unknown constructs degrade to *unchecked*, never to false findings:
an identifier the parser cannot classify is simply not reported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_TOKEN = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>--[^\n]*)
    | (?P<string>'(?:[^']|'')*')
    | (?P<qident>"[^"]*")
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<placeholder>\?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<punct>.)
    """,
    re.VERBOSE | re.DOTALL,
)

#: Words never treated as column references.
KEYWORDS = frozenset(
    """
    ABORT ACTION ADD ALL ALTER AND AS ASC AUTOINCREMENT BEGIN BETWEEN
    BLOB BOOLEAN BY CASCADE CASE CAST CHECK COLLATE COLUMN COMMIT
    CONFLICT CONSTRAINT CREATE CROSS CURRENT DEFAULT DELETE DESC
    DISTINCT DROP ELSE END ESCAPE EXCEPT EXISTS FOLLOWING FOREIGN FROM
    FULL GLOB GROUP HAVING IF IGNORE IN INDEX INDEXED INNER INSERT INTEGER
    INTERSECT INTO IS JOIN KEY LEFT LIKE LIMIT NO NOCASE NOT NULL
    NUMERIC OFFSET ON OR ORDER OUTER OVER PARTITION PRAGMA PRECEDING
    PRIMARY RANGE REAL RECURSIVE REFERENCES RENAME REPLACE RESTRICT
    RIGHT ROLLBACK ROW ROWID ROWS SELECT SET TABLE TEXT THEN TO
    TRANSACTION UNION UNIQUE UPDATE USING VALUES WHEN WHERE WITH
    WITHOUT
    """.split()
)

_PLACEHOLDER_RUN = re.compile(r"\?(?:\s*,\s*\?)+")
_WHITESPACE = re.compile(r"\s+")


def normalize_sql(text: str) -> str:
    """The census key of a statement.

    Collapses all whitespace to single spaces and every comma-joined
    run of ``?`` to one ``?``, so a batched ``IN (?, ?, ?)`` fill and
    its statically-known ``IN (?)`` template share one key regardless
    of runtime batch size.
    """
    collapsed = _WHITESPACE.sub(" ", text).strip()
    return _PLACEHOLDER_RUN.sub("?", collapsed)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup or "punct"
        if kind in ("ws", "comment"):
            continue
        tokens.append(Token(kind, match.group()))
    return tokens


@dataclass
class StatementInfo:
    """What one parsed statement references."""

    text: str
    normalized: str
    kind: str
    #: referenced table names (aliases resolved out)
    tables: set[str] = field(default_factory=set)
    #: alias -> table name
    aliases: dict[str, str] = field(default_factory=dict)
    #: (qualifier or None, column name); ``*`` appears as a name
    column_refs: list[tuple[str | None, str]] = field(default_factory=list)
    #: (table, index name) of every ``INDEXED BY`` clause
    index_hints: list[tuple[str, str]] = field(default_factory=list)
    #: output column aliases (``expr AS name``), which other clauses
    #: and enclosing queries may reference like columns
    column_aliases: set[str] = field(default_factory=set)
    placeholders: int = 0

    @property
    def checkable(self) -> bool:
        """Whether table/column checks apply to this statement kind."""
        return self.kind in (
            "select", "insert", "update", "delete", "create-index", "alter",
        )


def _statement_kind(tokens: list[Token]) -> str:
    words = [t.text.upper() for t in tokens if t.kind == "ident"][:4]
    if not words:
        return "other"
    first = words[0]
    if first == "PRAGMA":
        return "pragma"
    if first == "SELECT":
        return "select"
    if first in ("INSERT", "REPLACE"):
        return "insert"
    if first == "UPDATE":
        return "update"
    if first == "DELETE":
        return "delete"
    if first == "ALTER":
        return "alter"
    if first == "DROP":
        return "drop"
    if first in ("BEGIN", "COMMIT", "ROLLBACK"):
        return "transaction"
    if first == "CREATE":
        if "TABLE" in words:
            return "create-table"
        if "INDEX" in words:
            return "create-index"
        return "other"
    return "other"


def parse_statement(text: str) -> StatementInfo:
    """Extract table/column references and placeholder counts.

    ``create-table``, ``pragma``, and ``other`` statements return with
    empty reference lists — the caller skips checks for those kinds.
    """
    tokens = tokenize(text)
    info = StatementInfo(
        text=text, normalized=normalize_sql(text), kind=_statement_kind(tokens)
    )
    info.placeholders = sum(1 for t in tokens if t.kind == "placeholder")
    if not info.checkable:
        return info

    n = len(tokens)
    expect_table = False
    #: capture a parenthesized column list for this table (INSERT INTO
    #: t(...) and CREATE INDEX ... ON t(...))
    capture_columns = False
    pending_table: str | None = None
    #: in create-index mode only ON introduces the table, and the
    #: first free-standing identifier is the index's own name
    index_mode = info.kind == "create-index"
    index_name_pending = index_mode
    #: the table an ``INDEXED BY`` clause after it (or its alias) hints
    last_table: str | None = None
    if info.kind == "update":
        expect_table = True
        capture_columns = False

    i = 0
    # Skip the statement's leading keywords so UPDATE's table lands right.
    while i < n:
        token = tokens[i]
        if token.kind in ("string", "number", "qident"):
            i += 1
            continue
        if token.kind == "punct":
            if token.text == "(" and expect_table:
                expect_table = False  # subquery: FROM ( SELECT ... )
            i += 1
            continue
        if token.kind == "placeholder":
            i += 1
            continue
        word = token.text
        upper = word.upper()
        if upper in KEYWORDS:
            if upper in ("FROM", "JOIN"):
                expect_table = True
                capture_columns = False
                pending_table = None
            elif upper == "INTO":
                expect_table = True
                capture_columns = True
                pending_table = None
            elif upper in ("TABLE", "TO") and info.kind == "alter":
                # ALTER TABLE t ... and ALTER TABLE t RENAME TO t2
                expect_table = True
                capture_columns = False
            elif upper == "ON" and index_mode:
                expect_table = True
                capture_columns = True
            elif upper == "INDEXED":
                # ``t [AS a] INDEXED BY index`` names an index, not a
                # column; ``NOT INDEXED`` names nothing.
                if (
                    i + 2 < n
                    and tokens[i + 1].text.upper() == "BY"
                    and tokens[i + 2].kind == "ident"
                    and last_table is not None
                ):
                    info.index_hints.append((last_table, tokens[i + 2].text))
                    i += 2
            elif upper == "AS":
                # alias definition: map it when a table is pending
                # (FROM/JOIN context), otherwise record the output alias.
                if i + 1 < n and tokens[i + 1].kind == "ident":
                    if pending_table is not None:
                        info.aliases[tokens[i + 1].text] = pending_table
                        pending_table = None
                    else:
                        info.column_aliases.add(tokens[i + 1].text)
                    i += 1
            elif upper in (
                "WHERE", "GROUP", "ORDER", "LIMIT", "HAVING", "SET",
                "VALUES", "UNION", "INTERSECT", "EXCEPT",
            ):
                pending_table = None
            i += 1
            continue
        # A non-keyword identifier.
        if expect_table:
            info.tables.add(word)
            expect_table = False
            pending_table = last_table = word
            if capture_columns and i + 1 < n and tokens[i + 1].text == "(":
                j = i + 2
                while j < n and tokens[j].text != ")":
                    if tokens[j].kind == "ident":
                        info.column_refs.append((word, tokens[j].text))
                    j += 1
                i = j + 1
                capture_columns = False
                pending_table = None
                continue
            # bare alias (``FROM nodes child``) — rare, but cheap to map
            if (
                i + 1 < n
                and tokens[i + 1].kind == "ident"
                and tokens[i + 1].text.upper() not in KEYWORDS
            ):
                info.aliases[tokens[i + 1].text] = word
                pending_table = None
                i += 2
                if i < n and tokens[i].text == ",":
                    expect_table = True
                continue
            i += 1
            if i < n and tokens[i].text == ",":
                expect_table = True
            continue
        if index_name_pending:
            index_name_pending = False
            i += 1
            continue
        nxt = tokens[i + 1].text if i + 1 < n else ""
        if nxt == "(":
            # function call: COUNT(...), COALESCE(...), MAX(...)
            i += 1
            continue
        if nxt == ".":
            member = tokens[i + 2] if i + 2 < n else None
            if member is not None and member.kind == "ident":
                info.column_refs.append((word, member.text))
            elif member is not None and member.text == "*":
                info.column_refs.append((word, "*"))
            i += 3
            continue
        info.column_refs.append((None, word))
        i += 1
    return info


_CONSTRAINT_STARTERS = frozenset(
    {"PRIMARY", "UNIQUE", "FOREIGN", "CHECK", "CONSTRAINT"}
)


def parse_create_index(text: str) -> tuple[str, str] | None:
    """``(index name, table name)`` of a CREATE INDEX, else ``None``."""
    words = [t.text for t in tokenize(text) if t.kind == "ident"]
    upper = [word.upper() for word in words]
    if not upper or upper[0] != "CREATE" or "INDEX" not in upper[:3]:
        return None
    if "ON" not in upper:
        return None
    on = upper.index("ON")
    # CREATE [UNIQUE] INDEX [IF NOT EXISTS] name ON table (...)
    names = [word for word in words[:on] if word.upper() not in KEYWORDS]
    if not names or on + 1 >= len(words):
        return None
    return names[-1], words[on + 1]


def parse_create_table(text: str) -> tuple[str, tuple[str, ...]] | None:
    """``(table name, column names)`` of a CREATE TABLE, else ``None``."""
    tokens = tokenize(text)
    words = [t.text.upper() for t in tokens if t.kind == "ident"]
    if not words or words[0] != "CREATE" or "TABLE" not in words[:3]:
        return None
    # table name: first non-keyword identifier before the open paren
    name: str | None = None
    open_index: int | None = None
    for index, token in enumerate(tokens):
        if token.text == "(":
            open_index = index
            break
        if token.kind == "ident" and token.text.upper() not in KEYWORDS:
            name = token.text
    if name is None or open_index is None:
        return None
    columns: list[str] = []
    depth = 0
    start_of_def = True
    for token in tokens[open_index:]:
        if token.text == "(":
            depth += 1
            continue
        if token.text == ")":
            depth -= 1
            if depth == 0:
                break
            continue
        if depth == 1 and token.text == ",":
            start_of_def = True
            continue
        if depth == 1 and start_of_def and token.kind == "ident":
            if token.text.upper() not in _CONSTRAINT_STARTERS:
                columns.append(token.text)
            start_of_def = False
    return name, tuple(columns)
