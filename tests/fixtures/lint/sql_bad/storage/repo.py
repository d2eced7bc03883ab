"""The bad catalogue's call sites, and one statement built around it."""

from repro.storage import sql


def bad(db, name):
    db.query_one(sql.UNKNOWN_COLUMN, (name,))
    db.query_all(sql.UNKNOWN_TABLE)
    # Two ``?`` but the tuple carries one value.
    db.execute(sql.TWO_PLACEHOLDERS, (1,))
    # sql-interpolation: a runtime value spliced into the statement.
    db.execute(f"DELETE FROM trees WHERE name = '{name}'")
    db.query_one(sql.UNKNOWN_QUALIFIED_COLUMN)
