"""Reference reader and CSV writer of survey tables, kept for tests
only: ``parse_table`` parses ``survey.emit_table`` output back into typed
rows, and ``csv_table`` is the generic CSV encoder that the survey's
chunked writer is checked against."""

import io
import json

from stardyn.survey import TABLE_COLUMNS, _row_values


def csv_table(records) -> str:
    """The CSV table of the records, written row by row with ``csv``."""
    import csv

    rows = [_row_values(r) for r in records]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(TABLE_COLUMNS)
    for row in rows:
        flags = ["true" if flag else "false" for flag in row[3:5]]
        periods = " ".join(map(str, row[5]))
        writer.writerow([*row[:3], *flags, periods, row[6], "" if row[7] is None else row[7]])
    return buf.getvalue()


def parse_table(text: str, format: str = "json") -> list[list]:
    """Parse :func:`emit_table` output back into typed rows.

    Both formats decode to the same typed row values, so a JSON table and
    a CSV table of the same records compare equal after parsing.
    """
    if format == "json":
        payload = json.loads(text)
        if payload.get("columns") != list(TABLE_COLUMNS):
            raise ValueError("table columns do not match the published layout")
        return [list(row) for row in payload["rows"]]
    if format == "csv":
        import csv

        reader = csv.reader(io.StringIO(text))
        header = next(reader)
        if header != list(TABLE_COLUMNS):
            raise ValueError("table columns do not match the published layout")
        rows = []
        for rec in reader:
            rows.append(
                [
                    rec[0],
                    int(rec[1]),
                    int(rec[2]),
                    rec[3] == "true",
                    rec[4] == "true",
                    [int(q) for q in rec[5].split()] if rec[5] else [],
                    rec[6],
                    None if rec[7] == "" else int(rec[7]),
                ]
            )
        return rows
    raise ValueError(f"unknown table format: {format!r} (expected 'json' or 'csv')")
