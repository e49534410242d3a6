"""The EV_* schema, its generated doc table, and the doc stay in lockstep
(docs/OBSERVABILITY.md says how to regenerate the table)."""

import os
import re

from repro.telemetry import events
from repro.telemetry.events import EVENT_SCHEMA, KIND_NAMES

DOC_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "docs", "OBSERVABILITY.md"
)
BEGIN = "<!-- BEGIN GENERATED EVENT SCHEMA (do not edit by hand) -->"
END = "<!-- END GENERATED EVENT SCHEMA -->"


def schema_markdown_lines() -> list:
    """The generated event-schema table for ``docs/OBSERVABILITY.md``.

    One row per ``EV_*`` code, in code order, from :data:`EVENT_SCHEMA` and
    :data:`KIND_NAMES`; the doc embeds these lines verbatim between
    generation markers and :func:`test_doc_block_matches_generator` diffs
    them.
    """
    lines = [
        "| code | name | subject | `a` | `b` |",
        "|---|---|---|---|---|",
    ]
    for code in sorted(EVENT_SCHEMA):
        subject, a, b = EVENT_SCHEMA[code]
        lines.append(
            f"| {code} | `{KIND_NAMES[code]}` | {subject} | {a} | {b} |"
        )
    return lines


def test_schema_covers_every_event_constant():
    constants = {
        value
        for name, value in vars(events).items()
        if name.startswith("EV_") and isinstance(value, int)
    }
    assert constants, "no EV_* constants found"
    assert set(EVENT_SCHEMA) == constants
    assert set(KIND_NAMES) == constants


def test_schema_entries_are_complete():
    for code, entry in EVENT_SCHEMA.items():
        assert len(entry) == 3, f"EV code {code} needs (subject, a, b)"
        assert all(isinstance(part, str) and part for part in entry)


def test_markdown_table_shape():
    lines = schema_markdown_lines()
    assert lines[0].startswith("| code | name |")
    assert lines[1].startswith("|---")
    assert len(lines) == 2 + len(EVENT_SCHEMA)
    # Codes appear in ascending order.
    codes = [int(line.split("|")[1]) for line in lines[2:]]
    assert codes == sorted(EVENT_SCHEMA)


def test_doc_block_matches_generator():
    with open(DOC_PATH, "r", encoding="utf-8") as handle:
        doc = handle.read()
    match = re.search(re.escape(BEGIN) + r"\n(.*?)\n" + re.escape(END), doc, re.S)
    assert match, "generation markers missing from docs/OBSERVABILITY.md"
    doc_lines = match.group(1).splitlines()
    assert doc_lines == schema_markdown_lines(), (
        "docs/OBSERVABILITY.md event table is stale; regenerate it from "
        "tests.test_events_schema_doc.schema_markdown_lines()"
    )
