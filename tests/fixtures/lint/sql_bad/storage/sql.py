"""A catalogue with one bad entry per fault SQLite must reject (see the
fixture README); ``tests/test_lint_sql.py`` prepares each one."""

UNKNOWN_COLUMN = "SELECT weight FROM trees WHERE name = ?"
UNKNOWN_TABLE = "SELECT * FROM missing_table"
TWO_PLACEHOLDERS = "INSERT INTO trees (tree_id, name) VALUES (?, ?)"
UNKNOWN_QUALIFIED_COLUMN = "SELECT t.nope FROM trees AS t"
